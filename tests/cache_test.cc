#include <gtest/gtest.h>

#include "cache/cache_tier.h"
#include "cache/fingerprint_table.h"
#include "cache/packet_store.h"
#include "util/rng.h"

namespace bytecache::cache {
namespace {

using util::Bytes;

Bytes payload_of(char c, std::size_t n = 64) { return Bytes(n, c); }

// -------------------------------------------------------- PacketStore --

TEST(PacketStore, InsertAndLookup) {
  PacketStore store;
  PacketMeta meta;
  meta.tcp_seq = 42;
  meta.has_tcp_seq = true;
  const auto id = store.insert(payload_of('a'), meta);
  ASSERT_NE(id, 0u);
  const CachedPacket* p = store.lookup(id);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->payload, payload_of('a'));
  EXPECT_EQ(p->meta.tcp_seq, 42u);
  EXPECT_TRUE(store.contains(id));
}

TEST(PacketStore, IdsAreMonotonic) {
  PacketStore store;
  const auto a = store.insert(payload_of('a'), {});
  const auto b = store.insert(payload_of('b'), {});
  EXPECT_LT(a, b);
}

TEST(PacketStore, LookupAbsentReturnsNull) {
  PacketStore store;
  EXPECT_EQ(store.lookup(12345), nullptr);
  EXPECT_FALSE(store.contains(12345));
}

TEST(PacketStore, BytesUsedTracksPayloads) {
  PacketStore store;
  store.insert(payload_of('a', 100), {});
  store.insert(payload_of('b', 50), {});
  EXPECT_EQ(store.bytes_used(), 150u);
  EXPECT_EQ(store.size(), 2u);
}

TEST(PacketStore, ClearEmpties) {
  PacketStore store;
  const auto id = store.insert(payload_of('a'), {});
  store.clear();
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(store.bytes_used(), 0u);
  EXPECT_EQ(store.lookup(id), nullptr);
}

TEST(PacketStore, EvictsLruWhenOverBudget) {
  PacketStore store(CacheConfig{.l1_bytes = 250});
  const auto a = store.insert(payload_of('a', 100), {});
  const auto b = store.insert(payload_of('b', 100), {});
  // Touch a so b becomes the LRU.
  ASSERT_NE(store.lookup(a), nullptr);
  const auto c = store.insert(payload_of('c', 100), {});
  EXPECT_TRUE(store.contains(a));
  EXPECT_FALSE(store.contains(b));  // evicted
  EXPECT_TRUE(store.contains(c));
  EXPECT_EQ(store.evictions(), 1u);
  EXPECT_LE(store.bytes_used(), 250u);
}

TEST(PacketStore, NeverEvictsTheJustInsertedEntry) {
  PacketStore store(CacheConfig{.l1_bytes = 50});  // smaller than one payload
  const auto id = store.insert(payload_of('a', 100), {});
  EXPECT_TRUE(store.contains(id));
}

TEST(PacketStore, UnboundedNeverEvicts) {
  PacketStore store(CacheConfig{.l1_bytes = 0});
  for (int i = 0; i < 1000; ++i) store.insert(payload_of('x', 1000), {});
  EXPECT_EQ(store.size(), 1000u);
  EXPECT_EQ(store.evictions(), 0u);
}

TEST(PacketStore, PeekDoesNotTouchRecency) {
  PacketStore store(CacheConfig{.l1_bytes = 250});
  const auto a = store.insert(payload_of('a', 100), {});
  store.insert(payload_of('b', 100), {});
  ASSERT_NE(store.peek(a), nullptr);  // peek must NOT move a to front
  store.insert(payload_of('c', 100), {});
  EXPECT_FALSE(store.contains(a));  // a was still the LRU
}

// -------------------------------------------------- FingerprintTable --

// A slot the slab grows by sizes its anchor lists from its payload's
// arena class, so the list a later occupant of that size fills needs no
// heap allocation; a recycled slot keeps that capacity.
TEST(PacketStore, FreshSlotsReserveAnchorListsForTheirClass) {
  CacheConfig cc;
  cc.l1_bytes = 1460;
  PacketStore store(cc);
  const std::size_t want = 2048 / kBytesPerAnchor;  // 1,460 B: class 2 KiB
  const auto first = store.insert(payload_of('a', 1460), {});
  const CachedPacket* p = store.peek(first);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(p->fps.capacity(), want);
  EXPECT_GE(p->offsets.capacity(), want);
  const rabin::Fingerprint* fps = p->fps.data();
  const std::uint16_t* offsets = p->offsets.data();
  // The second insert grows the slab once more and evicts the first; the
  // third takes the first's slot and fills its lists in place.
  (void)store.insert(payload_of('b', 1460), {});
  const std::vector<rabin::Anchor> anchors(want, rabin::Anchor{0, 0x10});
  const auto third = store.insert(payload_of('c', 1460), {}, anchors);
  p = store.peek(third);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->fps.size(), want);
  EXPECT_EQ(p->fps.data(), fps);
  EXPECT_EQ(p->offsets.data(), offsets);
}

TEST(FingerprintTable, PutGetErase) {
  FingerprintTable t;
  t.put(0xAB, FpEntry{7, 13});
  auto e = t.get(0xAB);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->packet_id, 7u);
  EXPECT_EQ(e->offset, 13u);
  t.erase(0xAB);
  EXPECT_FALSE(t.get(0xAB).has_value());
}

TEST(FingerprintTable, PutOverwrites) {
  FingerprintTable t;
  t.put(0xAB, FpEntry{1, 0});
  t.put(0xAB, FpEntry{2, 5});
  auto e = t.get(0xAB);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->packet_id, 2u);  // "replacing the entry from Pstored to Pnew"
  EXPECT_EQ(t.size(), 1u);
}

TEST(FingerprintTable, GetAbsent) {
  FingerprintTable t;
  EXPECT_FALSE(t.get(0x123).has_value());
}

TEST(FingerprintTable, Clear) {
  FingerprintTable t;
  t.put(1, {});
  t.put(2, {});
  t.clear();
  EXPECT_EQ(t.size(), 0u);
}

std::vector<rabin::Anchor> anchors_of(
    std::initializer_list<rabin::Fingerprint> fps) {
  std::vector<rabin::Anchor> v;
  std::uint16_t off = 0;
  for (rabin::Fingerprint fp : fps) v.push_back(rabin::Anchor{off++, fp});
  return v;
}

TEST(FingerprintTable, PurgeErasesExactlyTheEntriesThePacketOwns) {
  FingerprintTable t;
  // Packet 1 lists 0x10 twice; packet 2 later takes over 0x20 and 0x30.
  const std::vector<rabin::Fingerprint> fps1 = {0x10, 0x20, 0x10, 0x30,
                                                0x40};
  t.put_anchors(1, anchors_of({0x10, 0x20, 0x10, 0x30, 0x40}));
  t.put_anchors(2, anchors_of({0x20, 0x30, 0x50}));
  ASSERT_EQ(t.owned(1), 2u);  // 0x10 (once) and 0x40
  ASSERT_EQ(t.owned(2), 3u);

  EXPECT_EQ(t.purge(1, fps1), 2u);
  EXPECT_EQ(t.owned(1), 0u);
  EXPECT_FALSE(t.get(0x10).has_value());
  EXPECT_FALSE(t.get(0x40).has_value());
  // The newer packet's overwrites survive the old packet's purge.
  for (const rabin::Fingerprint fp : {0x20, 0x30, 0x50}) {
    const auto e = t.get(fp);
    ASSERT_TRUE(e.has_value()) << fp;
    EXPECT_EQ(e->packet_id, 2u) << fp;
  }
  EXPECT_EQ(t.owned(2), 3u);
  EXPECT_EQ(t.size(), 3u);
  t.audit_owner_counts();

  // Nothing left to purge: a second purge erases nothing.
  EXPECT_EQ(t.purge(1, fps1), 0u);
  EXPECT_EQ(t.size(), 3u);
}

TEST(FingerprintTable, PurgeStopsOnceOwnedEntriesAreGone) {
  FingerprintTable t;
  t.put_anchors(3, anchors_of({0x100, 0x200, 0x300}));
  // Claim one entry fewer than the table holds: the walk stops after
  // the second erase, so the third entry is never reached.  (With a
  // true count the early stop only skips entries the packet cannot own.)
  t.skew_owner_count_for_test(3, -1);
  EXPECT_EQ(t.purge(3, std::vector<rabin::Fingerprint>{0x100, 0x200, 0x300}),
            2u);
  EXPECT_EQ(t.owned(3), 0u);
  EXPECT_FALSE(t.get(0x100).has_value());
  EXPECT_FALSE(t.get(0x200).has_value());
  EXPECT_TRUE(t.get(0x300).has_value());
}

// -------------------------------------------------- L2-less CacheTier --
// (The suite keeps the name of the flat cache class these tests were
// written against, which CacheTier absorbed, so test ids stay stable.)

std::vector<rabin::Anchor> anchors_at(
    std::initializer_list<std::pair<std::uint16_t, rabin::Fingerprint>> list) {
  std::vector<rabin::Anchor> v;
  for (auto [off, fp] : list) v.push_back(rabin::Anchor{off, fp});
  return v;
}

TEST(ByteCache, UpdateThenFind) {
  CacheTier cache;
  const Bytes payload = payload_of('p', 128);
  cache.update(payload, anchors_at({{10, 0xF0}, {40, 0xE0}}), {});
  auto hit = cache.find(0xF0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->offset, 10u);
  EXPECT_EQ(hit->packet->payload, payload);
  auto hit2 = cache.find(0xE0);
  ASSERT_TRUE(hit2.has_value());
  EXPECT_EQ(hit2->offset, 40u);
  EXPECT_EQ(hit2->packet->id, hit->packet->id);  // stored once
}

TEST(ByteCache, EmptyAnchorsNotStored) {
  CacheTier cache;
  EXPECT_EQ(cache.update(payload_of('p'), {}, {}), 0u);
  EXPECT_EQ(cache.store().size(), 0u);
}

TEST(ByteCache, FindMiss) {
  CacheTier cache;
  EXPECT_FALSE(cache.find(0x99).has_value());
  EXPECT_EQ(cache.stats().lookups, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(ByteCache, NewerPacketOverwritesFingerprint) {
  CacheTier cache;
  cache.update(payload_of('a'), anchors_at({{0, 0xF0}}), {});
  cache.update(payload_of('b'), anchors_at({{5, 0xF0}}), {});
  auto hit = cache.find(0xF0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->packet->payload, payload_of('b'));
  EXPECT_EQ(hit->offset, 5u);
}

TEST(ByteCache, EvictedEntryIsPurgedEagerly) {
  // One 100-byte payload + budget margin.
  CacheTier cache(CacheConfig{.l1_bytes = 150});
  cache.update(payload_of('a', 100), anchors_at({{0, 0xA0}}), {});
  cache.update(payload_of('b', 100), anchors_at({{0, 0xB0}}), {});
  // 'a' was evicted; the eviction hook purged its fingerprint immediately,
  // so the lookup is a clean miss rather than a stale hit.
  auto hit = cache.find(0xA0);
  EXPECT_FALSE(hit.has_value());
  EXPECT_EQ(cache.stats().stale_hits, 0u);
  EXPECT_EQ(cache.stats().fingerprints_purged, 1u);
  EXPECT_EQ(cache.fingerprint_count(), 1u);
  EXPECT_EQ(cache.table().audit(cache.store()), 0u);  // no stale entries
  cache.audit();
}

TEST(ByteCache, FlushClearsEverything) {
  CacheTier cache;
  cache.update(payload_of('a'), anchors_at({{0, 0xA0}}), {});
  cache.flush();
  EXPECT_FALSE(cache.find(0xA0).has_value());
  EXPECT_EQ(cache.store().size(), 0u);
  EXPECT_EQ(cache.fingerprint_count(), 0u);
  EXPECT_EQ(cache.stats().flushes, 1u);
}

TEST(ByteCache, MetaPreserved) {
  CacheTier cache;
  PacketMeta meta;
  meta.tcp_seq = 1234;
  meta.has_tcp_seq = true;
  meta.stream_index = 9;
  meta.epoch = 3;
  meta.src_uid = 77;
  cache.update(payload_of('a'), anchors_at({{0, 0xA0}}), meta);
  auto hit = cache.find(0xA0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->packet->meta.tcp_seq, 1234u);
  EXPECT_TRUE(hit->packet->meta.has_tcp_seq);
  EXPECT_EQ(hit->packet->meta.stream_index, 9u);
  EXPECT_EQ(hit->packet->meta.epoch, 3u);
  EXPECT_EQ(hit->packet->meta.src_uid, 77u);
}

TEST(ByteCache, StatsCountInsertions) {
  CacheTier cache;
  cache.update(payload_of('a'), anchors_at({{0, 1}, {1, 2}, {2, 3}}), {});
  EXPECT_EQ(cache.stats().packets_inserted, 1u);
  EXPECT_EQ(cache.stats().fingerprints_inserted, 3u);
}

}  // namespace
}  // namespace bytecache::cache
