// Cache persistence: snapshot / warm-restore of the gateway caches
// through the versioned save/load surface (cache/snapshot.h).
#include <gtest/gtest.h>

#include <algorithm>

#include "cache/cache_tier.h"
#include "cache/snapshot.h"
#include "core/decoder.h"
#include "core/encoder.h"
#include "harness/experiment.h"
#include "tests/testutil.h"
#include "util/crc32.h"
#include "workload/generators.h"

namespace bytecache {
namespace {

using util::Bytes;
using util::Rng;

Bytes save_bytes(cache::CacheTier& cache) {
  cache::SnapshotWriter w;
  cache.save(w);
  return w.take();
}

/// Restores `snap` into `cache`, enforcing the historical contract:
/// trailing bytes after the snapshot block are a malformed input (the
/// cache ends up flushed, not half-restored).
bool load_bytes(util::BytesView snap, cache::CacheTier& cache) {
  cache::SnapshotReader r(snap);
  if (!cache.load(r)) return false;
  if (!r.at_end()) {
    cache.flush();
    return false;
  }
  return true;
}

TEST(Persist, EmptyCacheRoundTrips) {
  cache::CacheTier cache;
  const Bytes snap = save_bytes(cache);
  cache::CacheTier restored;
  ASSERT_TRUE(load_bytes(snap, restored));
  EXPECT_EQ(restored.store().size(), 0u);
  EXPECT_EQ(restored.fingerprint_count(), 0u);
}

TEST(Persist, ContentsAndMetaRoundTrip) {
  cache::CacheTier cache;
  cache::PacketMeta meta;
  meta.tcp_seq = 1234;
  meta.tcp_end_seq = 2234;
  meta.has_tcp_seq = true;
  meta.stream_index = 17;
  meta.epoch = 3;
  meta.src_uid = 99;
  meta.flow_key = 0xABCDEF;
  std::vector<rabin::Anchor> anchors = {{4, 0xF0}, {40, 0xE0}};
  cache.update(Bytes(128, 'p'), anchors, meta);

  cache::CacheTier restored;
  ASSERT_TRUE(load_bytes(save_bytes(cache), restored));
  auto hit = restored.find(0xF0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->offset, 4u);
  EXPECT_EQ(hit->packet->payload, Bytes(128, 'p'));
  EXPECT_EQ(hit->packet->meta.tcp_seq, 1234u);
  EXPECT_EQ(hit->packet->meta.tcp_end_seq, 2234u);
  EXPECT_TRUE(hit->packet->meta.has_tcp_seq);
  EXPECT_EQ(hit->packet->meta.stream_index, 17u);
  EXPECT_EQ(hit->packet->meta.epoch, 3u);
  EXPECT_EQ(hit->packet->meta.src_uid, 99u);
  EXPECT_EQ(hit->packet->meta.flow_key, 0xABCDEFu);
}

TEST(Persist, LruOrderSurvives) {
  cache::CacheTier cache;
  for (int i = 0; i < 5; ++i) {
    cache.update(Bytes(64, static_cast<std::uint8_t>('a' + i)),
                 {{0, static_cast<rabin::Fingerprint>(0x100 + i)}}, {});
  }
  // Touch 0xA0+0 so it becomes MRU.
  (void)cache.find(0x100);

  cache::CacheTier restored;
  ASSERT_TRUE(load_bytes(save_bytes(cache), restored));
  ASSERT_EQ(restored.store().entries().size(), 5u);
  EXPECT_EQ(restored.store().entries().front().payload[0], 'a');  // MRU
}

TEST(Persist, MalformedSnapshotsRejectedAndFlushed) {
  cache::CacheTier cache;
  cache.update(Bytes(64, 'x'), {{0, 0x10}}, {});
  Bytes snap = save_bytes(cache);

  cache::CacheTier victim;
  victim.update(Bytes(64, 'y'), {{0, 0x20}}, {});

  // Truncations must fail cleanly (and leave the cache empty, never
  // half-restored).
  for (std::size_t len : {0u, 3u, 8u, 20u}) {
    ASSERT_FALSE(load_bytes(
        util::BytesView(snap.data(), std::min(len, snap.size())), victim))
        << len;
    EXPECT_EQ(victim.store().size(), 0u);
  }
  // Bad magic.
  Bytes bad = snap;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(load_bytes(bad, victim));
  // Trailing garbage.
  Bytes trailing = snap;
  trailing.push_back(0);
  EXPECT_FALSE(load_bytes(trailing, victim));

  // A tiered image whose stripe block has the retired "BCL2" layout —
  // each record carried a 4-byte hit count after its metadata — is
  // rejected by its magic, not misread.
  cache::CacheConfig cc;
  cc.l1_bytes = 256;
  cc.l2_bytes = 4096;
  cache::L2Store l2(cc, 1);
  cache::CacheTier tiered(cc, &l2);
  tiered.update(Bytes(200, 'a'), {{0, 0xA1}}, {});
  tiered.update(Bytes(200, 'b'), {{0, 0xB2}}, {});  // demotes the first
  ASSERT_EQ(tiered.stripe()->size(), 1u);
  const Bytes image = save_bytes(tiered);
  const Bytes magic = {'B', 'C', 'S', '1'};
  const auto at =
      std::search(image.begin(), image.end(), magic.begin(), magic.end());
  ASSERT_NE(at, image.end());
  Bytes old_layout = image;
  const auto block = at - image.begin();
  const Bytes old_magic = {'B', 'C', 'L', '2'};
  std::copy(old_magic.begin(), old_magic.end(), old_layout.begin() + block);
  // Magic, packet count, id, then the 45-byte host-keyed metadata record.
  old_layout.insert(old_layout.begin() + block + 4 + 4 + 8 + 45, 4, 0);
  cache::L2Store l2_victim(cc, 1);
  cache::CacheTier tiered_victim(cc, &l2_victim);
  ASSERT_TRUE(load_bytes(image, tiered_victim));
  EXPECT_EQ(tiered_victim.stripe()->size(), 1u);
  EXPECT_FALSE(load_bytes(old_layout, tiered_victim));
  EXPECT_EQ(tiered_victim.store().size(), 0u);
  EXPECT_EQ(tiered_victim.stripe()->size(), 0u);
  EXPECT_EQ(tiered_victim.fingerprint_count(), 0u);
}

TEST(Persist, FuzzDeserializeNeverCrashes) {
  Rng rng(1);
  cache::CacheTier cache;
  for (int i = 0; i < 2000; ++i) {
    Bytes junk = testutil::random_bytes(rng, rng.uniform(0, 120));
    if (junk.size() >= 4 && rng.chance(0.5)) {
      junk[0] = 0x42;
      junk[1] = 0x43;
      junk[2] = 0x43;
      junk[3] = 0x31;
    }
    (void)load_bytes(junk, cache);
  }
}

TEST(Persist, WarmRestartKeepsGatewaysInLockstep) {
  // Encode half a stream, snapshot both sides, restart into fresh codec
  // objects, continue the stream: references into the pre-restart history
  // must still decode.
  core::DreParams params;
  auto enc = std::make_unique<core::Encoder>(
      params, core::make_policy(core::PolicyKind::kNaive, params));
  auto dec = std::make_unique<core::Decoder>(params);
  Rng rng(2);
  const Bytes object = workload::make_file1(rng, 200 * 1460);
  auto packets = testutil::segment_stream(object);

  const std::size_t half = packets.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    enc->process(*packets[i]);
    ASSERT_FALSE(core::is_drop(dec->process(*packets[i]).status));
  }
  const Bytes enc_snap = enc->save_state();
  const Bytes dec_snap = dec->save_state();

  // "Restart" both gateways.
  enc = std::make_unique<core::Encoder>(
      params, core::make_policy(core::PolicyKind::kNaive, params));
  dec = std::make_unique<core::Decoder>(params);
  ASSERT_TRUE(enc->load_state(enc_snap));
  ASSERT_TRUE(dec->load_state(dec_snap));

  std::size_t encoded_after = 0;
  for (std::size_t i = half; i < packets.size(); ++i) {
    const Bytes original = packets[i]->payload;
    if (enc->process(*packets[i]).encoded) ++encoded_after;
    ASSERT_FALSE(core::is_drop(dec->process(*packets[i]).status)) << i;
    ASSERT_EQ(packets[i]->payload, original) << i;
  }
  // Compression continued immediately (warm cache), including references
  // into pre-restart packets (File 1's far window reaches 36 units back).
  EXPECT_GT(encoded_after, (packets.size() - half) * 3 / 4);
}

TEST(Persist, EncoderRejectsGarbageState) {
  core::DreParams params;
  core::Encoder enc(params,
                    core::make_policy(core::PolicyKind::kNaive, params));
  EXPECT_FALSE(enc.load_state(Bytes(5, 0)));
  Bytes junk(64, 0xAA);
  EXPECT_FALSE(enc.load_state(junk));
}

TEST(Persist, ColdVsWarmRestartCompressionGap) {
  // The operational motivation: a warm-restarted encoder keeps saving
  // bytes where a cold one must relearn the history.
  core::DreParams params;
  Rng rng(3);
  const Bytes object = workload::make_file1(rng, 150 * 1460);
  auto packets = testutil::segment_stream(object);
  const std::size_t half = packets.size() / 2;

  auto run_second_half = [&](bool warm) {
    core::Encoder first(params,
                        core::make_policy(core::PolicyKind::kNaive, params));
    for (std::size_t i = 0; i < half; ++i) {
      auto copy = packet::clone_packet(*packets[i]);
      first.process(*copy);
    }
    core::Encoder second(params,
                         core::make_policy(core::PolicyKind::kNaive, params));
    if (warm) {
      EXPECT_TRUE(second.load_state(first.save_state()));
    }
    for (std::size_t i = half; i < packets.size(); ++i) {
      auto copy = packet::clone_packet(*packets[i]);
      second.process(*copy);
    }
    return second.stats().bytes_out;
  };
  EXPECT_LT(run_second_half(true), run_second_half(false));
}

TEST(Persist, ImageOverTheL1BudgetIsTrimmedOnLoad) {
  // An image saved under a larger L1 keeps its most recent packets that
  // fit this budget — what a runtime insert would have kept — and the
  // trim counts no statistics.
  cache::CacheTier unbounded;
  for (int i = 0; i < 20; ++i) {
    unbounded.update(Bytes(1000, static_cast<std::uint8_t>('a' + i)),
                     {{0, static_cast<rabin::Fingerprint>(0x100 + i)}}, {});
  }
  cache::CacheConfig cc;
  cc.l1_bytes = 4096;
  cache::CacheTier bounded(cc);
  ASSERT_TRUE(load_bytes(save_bytes(unbounded), bounded));
  EXPECT_LE(bounded.store().bytes_used(), cc.l1_bytes);
  EXPECT_EQ(bounded.store().size(), 4u);
  EXPECT_EQ(bounded.table().size(), 4u);
  EXPECT_EQ(bounded.store().evictions(), 0u);
  EXPECT_EQ(bounded.stats().fingerprints_purged, 0u);
  bounded.audit();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(bounded.find(static_cast<rabin::Fingerprint>(0x100 + i))
                  .has_value(),
              i >= 16)
        << i;
  }
}

TEST(Persist, TrimmedRestoreKeepsGatewaysInLockstep) {
  // Both sides of an unbounded pair restart with a smaller L1: each trims
  // its own image to the same packets, and the rest of the stream still
  // decodes without a drop.
  core::DreParams params;
  auto enc = std::make_unique<core::Encoder>(
      params, core::make_policy(core::PolicyKind::kNaive, params));
  auto dec = std::make_unique<core::Decoder>(params);
  Rng rng(2);
  const Bytes object = workload::make_file1(rng, 200 * 1460);
  auto packets = testutil::segment_stream(object);
  const std::size_t half = packets.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    enc->process(*packets[i]);
    ASSERT_FALSE(core::is_drop(dec->process(*packets[i]).status));
  }
  const Bytes enc_snap = enc->save_state();
  const Bytes dec_snap = dec->save_state();
  const std::size_t saved = enc->cache().store().size();

  cache::CacheConfig cc;
  cc.l1_bytes = 64 * 1024;
  enc = std::make_unique<core::Encoder>(
      params, core::make_policy(core::PolicyKind::kNaive, params), cc);
  dec = std::make_unique<core::Decoder>(params, cc);
  ASSERT_TRUE(enc->load_state(enc_snap));
  ASSERT_TRUE(dec->load_state(dec_snap));
  EXPECT_LE(enc->cache().store().bytes_used(), cc.l1_bytes);
  std::vector<std::uint64_t> enc_ids, dec_ids;
  for (const cache::CachedPacket& p : enc->cache().store().entries()) {
    enc_ids.push_back(p.id);
  }
  for (const cache::CachedPacket& p : dec->cache().store().entries()) {
    dec_ids.push_back(p.id);
  }
  EXPECT_EQ(enc_ids, dec_ids);
  EXPECT_LT(enc_ids.size(), saved);
  enc->audit();
  dec->audit();

  std::size_t encoded_after = 0;
  for (std::size_t i = half; i < packets.size(); ++i) {
    const Bytes original = packets[i]->payload;
    if (enc->process(*packets[i]).encoded) ++encoded_after;
    ASSERT_FALSE(core::is_drop(dec->process(*packets[i]).status)) << i;
    ASSERT_EQ(packets[i]->payload, original) << i;
  }
  EXPECT_GT(encoded_after, 0u);
  enc->audit();
  dec->audit();
}

// ----------------------------------------------- snapshot validation --

/// A failed restore must leave the target empty and audit-clean.
void expect_rejected_clean(util::BytesView snap) {
  cache::CacheTier restored;
  EXPECT_FALSE(load_bytes(snap, restored));
  EXPECT_EQ(restored.store().size(), 0u);
  EXPECT_EQ(restored.fingerprint_count(), 0u);
  restored.audit();
}

TEST(Persist, RejectsDanglingFingerprint) {
  // A snapshot whose fingerprint table names a packet id the store does
  // not hold would break the table invariants the hit-expansion path
  // relies on; it must be rejected, not restored subtly wrong.
  cache::CacheTier bad;
  bad.restore_fingerprint(0xF00D, cache::FpEntry{/*packet_id=*/42,
                                                 /*offset=*/0});
  expect_rejected_clean(save_bytes(bad));
}

TEST(Persist, RejectsFingerprintOffsetBeyondPayload) {
  cache::CacheTier bad;
  bad.update(Bytes(64, 'x'), {{0, 0xBEEF}}, {});
  Bytes snap = save_bytes(bad);
  // The last fingerprint record's trailing u16 is its offset; point it
  // past the 64-byte payload.
  snap[snap.size() - 2] = 0;
  snap[snap.size() - 1] = 200;
  expect_rejected_clean(snap);
}

/// A "BCC1" image holding one 4-byte packet per id and no fingerprints,
/// crafted byte by byte.
Bytes flat_image(const std::vector<std::uint64_t>& ids) {
  Bytes snap;
  util::put_u32(snap, 0x42434331);  // magic "BCC1"
  util::put_u32(snap, static_cast<std::uint32_t>(ids.size()));
  for (std::uint64_t id : ids) {
    util::put_u64(snap, id);
    util::put_u64(snap, 0);  // flow_key
    util::put_u64(snap, 0);  // src_uid
    util::put_u64(snap, 0);  // stream_index
    util::put_u32(snap, 0);  // tcp_seq
    util::put_u32(snap, 0);  // tcp_end_seq
    util::put_u32(snap, 0);  // epoch
    util::put_u8(snap, 0);   // has_tcp_seq
    util::put_u32(snap, 4);  // payload length
    util::append(snap, Bytes{'a', 'b', 'c', 'd'});
  }
  util::put_u32(snap, 0);  // fingerprint count
  return snap;
}

TEST(Persist, RejectsZeroAndDuplicatePacketIds) {
  // PacketStore::restore trusts its input, so the loader must screen
  // ids: 0 is the "absent" sentinel and duplicates would corrupt the id
  // index.
  cache::CacheTier ok;
  EXPECT_TRUE(load_bytes(flat_image({5, 9}), ok));
  expect_rejected_clean(flat_image({0}));
  expect_rejected_clean(flat_image({5, 5}));
}

TEST(Persist, CorruptedSnapshotNeverRestoresInvalidState) {
  // Flip every byte of a real snapshot in turn (and try truncations):
  // each mutation must either restore an audit-clean cache or be
  // rejected with the cache left empty.
  cache::CacheTier cache;
  Rng rng(11);
  for (int i = 0; i < 6; ++i) {
    std::vector<rabin::Anchor> anchors = {
        {static_cast<std::uint16_t>(i * 3),
         static_cast<rabin::Fingerprint>(0x1000 + i)}};
    cache.update(testutil::random_bytes(rng, 96 + i * 17), anchors, {});
  }
  const Bytes snap = save_bytes(cache);

  for (std::size_t pos = 0; pos < snap.size(); ++pos) {
    Bytes mutated = snap;
    mutated[pos] ^= 0x40;
    cache::CacheTier restored;
    const bool ok = load_bytes(mutated, restored);
    if (!ok) {
      EXPECT_EQ(restored.store().size(), 0u) << "flip at " << pos;
      EXPECT_EQ(restored.fingerprint_count(), 0u) << "flip at " << pos;
    }
    restored.audit();
  }
  for (std::size_t len = 0; len < snap.size(); len += 13) {
    cache::CacheTier restored;
    EXPECT_FALSE(
        load_bytes(util::BytesView(snap.data(), len), restored))
        << "truncation to " << len;
    EXPECT_EQ(restored.store().size(), 0u);
    EXPECT_EQ(restored.fingerprint_count(), 0u);
    restored.audit();
  }
}

TEST(Persist, IntactSnapshotStillRoundTripsAfterValidation) {
  // The validation must not reject healthy snapshots: a cache with
  // cross-referencing fingerprints round-trips exactly.
  cache::CacheTier cache;
  Rng rng(12);
  for (int i = 0; i < 4; ++i) {
    std::vector<rabin::Anchor> anchors = {
        {0, static_cast<rabin::Fingerprint>(0x2000 + i)},
        {32, static_cast<rabin::Fingerprint>(0x3000 + i)}};
    cache.update(testutil::random_bytes(rng, 128), anchors, {});
  }
  cache::CacheTier restored;
  ASSERT_TRUE(load_bytes(save_bytes(cache), restored));
  EXPECT_EQ(restored.store().size(), cache.store().size());
  EXPECT_EQ(restored.fingerprint_count(), cache.fingerprint_count());
  EXPECT_EQ(save_bytes(restored), save_bytes(cache));
  restored.audit();
}

// ------------------------------------------------- the 48-bit id field --
//
// The fingerprint index packs a packet id into 48 bits, so every restore
// path must reject a larger id rather than let the index truncate it
// onto another packet.

/// Adds `delta` to the big-endian u64 at `at`.
void add_to_u64(Bytes& image, std::size_t at, std::uint64_t delta) {
  std::size_t off = at;
  const std::uint64_t v = util::get_u64(image, off);
  Bytes word;
  util::put_u64(word, v + delta);
  std::copy(word.begin(), word.end(),
            image.begin() + static_cast<std::ptrdiff_t>(at));
}

TEST(PersistIdBound, FlatImageRejectsIdPastTheField) {
  expect_rejected_clean(flat_image({cache::kPacketIdLimit}));
  expect_rejected_clean(flat_image({5, cache::kPacketIdLimit + 5}));
  // The largest id that fits still restores, and then no id is left to
  // assign.
  cache::CacheTier edge;
  ASSERT_TRUE(load_bytes(flat_image({cache::kPacketIdLimit - 1}), edge));
  EXPECT_EQ(edge.store().next_id(), cache::kPacketIdLimit);
}

TEST(PersistIdBound, HostPatchRejectsIdPastTheField) {
  // An unbounded L1 in front of the L2: the packet stays in the L1 and
  // its host key rides the BCT1 patch table.
  cache::CacheConfig cc;
  cc.l2_bytes = 4096;
  cache::L2Store l2(cc, 1);
  cache::CacheTier live(cc, &l2);
  cache::PacketMeta meta;
  meta.host_key = 0x77;
  live.update(Bytes(64, 'h'), {{0, 0xAB}}, meta);
  Bytes image = save_bytes(live);
  ASSERT_EQ(cache::SnapshotReader(image).peek_u32(), cache::kSnapMagicTier);
  {
    cache::L2Store l2_intact(cc, 1);
    cache::CacheTier intact(cc, &l2_intact);
    ASSERT_TRUE(load_bytes(image, intact));
    EXPECT_EQ(intact.store().entries().front().meta.host_key, 0x77u);
  }
  // Tail: patched id (u64), host key (u64), has_l2 (u8), then the empty
  // stripe block: magic (u32), packet count (u32).  The id plus 2^48
  // would truncate to the patched packet's own id.
  add_to_u64(image, image.size() - 25, cache::kPacketIdLimit);
  cache::L2Store l2_restored(cc, 1);
  cache::CacheTier restored(cc, &l2_restored);
  EXPECT_FALSE(load_bytes(image, restored));
  EXPECT_EQ(restored.store().size(), 0u);
  EXPECT_EQ(restored.fingerprint_count(), 0u);
}

TEST(PersistIdBound, L2BlockRejectsIdPastTheField) {
  cache::CacheConfig cc;
  cc.l1_bytes = 256;
  cc.l2_bytes = 4096;
  cache::L2Store l2(cc, 1);
  cache::CacheTier live(cc, &l2);
  live.update(Bytes(200, 'a'), {{0, 0xA1}}, {});
  live.update(Bytes(200, 'b'), {{0, 0xB2}}, {});  // demotes the first
  ASSERT_EQ(live.stripe()->size(), 1u);
  Bytes image = save_bytes(live);
  // The stripe block: magic "BCS1", packet count (u32), first id (u64).
  const Bytes magic = {'B', 'C', 'S', '1'};
  const auto at = std::search(image.begin(), image.end(), magic.begin(),
                              magic.end());
  ASSERT_NE(at, image.end());
  const auto id_at = static_cast<std::size_t>(at - image.begin()) + 8;
  {
    cache::L2Store l2_intact(cc, 1);
    cache::CacheTier intact(cc, &l2_intact);
    ASSERT_TRUE(load_bytes(image, intact));
    EXPECT_EQ(intact.stripe()->size(), 1u);
  }
  add_to_u64(image, id_at, cache::kPacketIdLimit);
  cache::L2Store l2_restored(cc, 1);
  cache::CacheTier restored(cc, &l2_restored);
  EXPECT_FALSE(load_bytes(image, restored));
  EXPECT_EQ(restored.store().size(), 0u);
  EXPECT_EQ(restored.stripe()->size(), 0u);
  EXPECT_EQ(restored.fingerprint_count(), 0u);
}

// ---------------------------------------------------- snapshot goldens --
//
// The round-trip tests above prove save and load agree with each other;
// these pin the bytes themselves.  Each drives a fixed seeded operation
// sequence through one configuration and holds the resulting image's
// size and CRC-32 to recorded constants, so a refactor of the cache
// classes cannot silently change a snapshot format.

constexpr rabin::Fingerprint kGoldenFpBase = 0x5EED0000;

/// The fixed sequence: `packets` seeded payloads of 64..400 bytes, each
/// with 1..6 ascending anchors drawn from a 48-fingerprint pool (so later
/// packets take entries over from earlier owners) and metadata spread
/// over every PacketMeta field, host keys from three pairs.  Before every
/// third update four pool lookups refresh recency (and, tiered, hit L2
/// residents, queueing promotions); every eleventh update is preceded by
/// a NACK invalidation.
void drive_golden(cache::CacheTier& tier, std::uint64_t seed, int packets) {
  Rng rng(seed);
  for (int i = 0; i < packets; ++i) {
    const std::size_t len = rng.uniform(64, 400);
    const Bytes payload = testutil::random_bytes(rng, len);
    std::vector<rabin::Anchor> anchors;
    std::size_t off = rng.uniform(0, 15);
    const std::uint64_t n = rng.uniform(1, 6);
    for (std::uint64_t a = 0; a < n && off < len; ++a) {
      anchors.push_back(rabin::Anchor{static_cast<std::uint16_t>(off),
                                      kGoldenFpBase + rng.uniform(0, 47)});
      off += rng.uniform(8, 60);
    }
    cache::PacketMeta meta;
    meta.flow_key = 0xF10 + rng.uniform(0, 3);
    meta.src_uid = 1000 + static_cast<std::uint64_t>(i);
    meta.stream_index = static_cast<std::uint64_t>(i);
    meta.has_tcp_seq = i % 4 != 3;
    meta.tcp_seq = meta.has_tcp_seq ? 0x10000 + 1460u * i : 0;
    meta.tcp_end_seq = meta.has_tcp_seq ? meta.tcp_seq + len : 0;
    meta.epoch = static_cast<std::uint32_t>(i / 16);
    meta.host_key = 0xAB00 + rng.uniform(1, 3);
    if (i % 3 == 2) {
      for (int k = 0; k < 4; ++k) {
        (void)tier.find(kGoldenFpBase + rng.uniform(0, 47));
      }
    }
    if (i % 11 == 10) tier.invalidate(kGoldenFpBase + rng.uniform(0, 47));
    tier.update(payload, anchors, meta);
    tier.audit();
  }
}

/// Every index entry of `want` resolves identically in `got`, and the
/// two hold the same packets in each tier.
void expect_same_contents(const cache::CacheTier& got,
                          const cache::CacheTier& want) {
  EXPECT_EQ(got.store().size(), want.store().size());
  EXPECT_EQ(got.store().bytes_used(), want.store().bytes_used());
  EXPECT_EQ(got.table().size(), want.table().size());
  EXPECT_EQ(got.has_l2(), want.has_l2());
  if (got.has_l2() && want.has_l2()) {
    EXPECT_EQ(got.stripe()->size(), want.stripe()->size());
    EXPECT_EQ(got.stripe()->bytes_used(), want.stripe()->bytes_used());
  }
  want.table().for_each([&](rabin::Fingerprint fp, const cache::FpEntry& e) {
    const auto entry = got.table().get(fp);
    ASSERT_TRUE(entry.has_value()) << std::hex << fp;
    EXPECT_EQ(entry->packet_id, e.packet_id) << std::hex << fp;
    EXPECT_EQ(entry->offset, e.offset) << std::hex << fp;
  });
}

TEST(SnapshotGolden, FlatImageIsPinned) {
  cache::CacheConfig cc;
  cc.l1_bytes = 4096;
  cache::CacheTier tier(cc);
  drive_golden(tier, 0xB0C1, 48);
  cache::SnapshotWriter w;
  tier.save(w);
  const Bytes& image = w.buffer();
  {
    cache::SnapshotReader peek(image);
    EXPECT_EQ(peek.peek_u32(), cache::kSnapMagicFlat);
  }
  EXPECT_EQ(image.size(), 5466u);
  EXPECT_EQ(util::crc32(image), 0xB35D399Du);

  cache::CacheTier restored(cc);
  cache::SnapshotReader r(image);
  ASSERT_TRUE(restored.load(r));
  EXPECT_TRUE(r.at_end());
  restored.audit();
  expect_same_contents(restored, tier);
}

TEST(SnapshotGolden, TieredImageIsPinned) {
  cache::CacheConfig cc;
  cc.l1_bytes = 1500;
  cc.l2_bytes = 6000;
  cc.per_host_pair_bytes = 2500;
  cache::L2Store l2(cc, 1);
  cache::CacheTier tier(cc, &l2);
  drive_golden(tier, 0xB0C7, 64);
  // The sequence reaches every tier movement the image must carry.
  EXPECT_GT(tier.tier_stats().demotions, 0u);
  EXPECT_GT(tier.tier_stats().promotions, 0u);
  EXPECT_GT(tier.tier_stats().host_evictions, 0u);
  EXPECT_GT(tier.stripe()->size(), 0u);
  cache::SnapshotWriter w;
  tier.save(w);
  const Bytes& image = w.buffer();
  {
    cache::SnapshotReader peek(image);
    EXPECT_EQ(peek.peek_u32(), cache::kSnapMagicTier);
  }
  EXPECT_EQ(image.size(), 9844u);
  EXPECT_EQ(util::crc32(image), 0x73886D0Fu);

  cache::L2Store l2_restored(cc, 1);
  cache::CacheTier restored(cc, &l2_restored);
  cache::SnapshotReader r(image);
  ASSERT_TRUE(restored.load(r));
  EXPECT_TRUE(r.at_end());
  restored.audit();
  expect_same_contents(restored, tier);
  EXPECT_EQ(restored.snapshot_seq(), tier.snapshot_seq());
}

}  // namespace
}  // namespace bytecache
