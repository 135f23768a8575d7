// Unit and integration tests for the two-tier cache (DESIGN.md §14):
// CacheTier demotion/promotion mechanics, the per-host-pair admission
// control of the L2 stripe, the eviction-policy seam, and — at gateway
// level — the elephant/mouse isolation the per-pair budgets exist to
// provide, with the tier counters surfaced through the obs snapshot.
//
// The stale-fingerprint assertions extend the PR-2 eager-purge invariant
// across the tier boundary: the codec's one index serves both tiers, and
// after an L1 -> L2 demotion followed by L2 reclamation (share or
// host-budget eviction), no entry may name a packet that is no longer
// resident anywhere.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache_tier.h"
#include "cache/l2_store.h"
#include "core/flow.h"
#include "gateway/gateways.h"
#include "packet/packet.h"
#include "tests/testutil.h"
#include "util/check.h"
#include "util/rng.h"

namespace bytecache::cache {
namespace {

using util::Bytes;

Bytes payload_of(char c, std::size_t n = 100) { return Bytes(n, c); }

std::vector<rabin::Anchor> anchors_at(
    std::initializer_list<std::pair<std::uint16_t, rabin::Fingerprint>> list) {
  std::vector<rabin::Anchor> v;
  for (auto [off, fp] : list) v.push_back(rabin::Anchor{off, fp});
  return v;
}

PacketMeta meta_for(std::uint64_t host_key) {
  PacketMeta m;
  m.host_key = host_key;
  return m;
}

/// Counts index entries naming a packet resident in neither tier.  Must
/// always be zero: the L1 purge is eager, demotion and promotion keep a
/// packet resident somewhere, and the L2 purge runs inside evict_slot.
std::size_t stale_entries(const CacheTier& tier) {
  std::size_t stale = 0;
  tier.table().for_each([&](rabin::Fingerprint, const FpEntry& e) {
    if (!tier.store().contains(e.packet_id) &&
        !(tier.has_l2() && tier.stripe()->contains(e.packet_id))) {
      ++stale;
    }
  });
  return stale;
}

// --------------------------------------------------- basic mechanics --

TEST(CacheTier, L1EvictionDemotesAndL2HitPromotes) {
  CacheConfig cc;
  cc.l1_bytes = 250;  // two 100-byte payloads
  cc.l2_bytes = 64 * 1024;
  L2Store l2(cc, 1);
  CacheTier tier(cc, &l2);
  ASSERT_TRUE(tier.has_l2());

  const std::uint64_t id_a =
      tier.update(payload_of('a'), anchors_at({{0, 0xA0}}), {});
  const std::uint64_t id_b =
      tier.update(payload_of('b'), anchors_at({{0, 0xB0}}), {});
  // Third insert exceeds the L1 budget: 'a' (the LRU) demotes.
  const std::uint64_t id_c =
      tier.update(payload_of('c'), anchors_at({{0, 0xC0}}), {});
  EXPECT_EQ(tier.tier_stats().demotions, 1u);
  EXPECT_FALSE(tier.store().contains(id_a));
  EXPECT_TRUE(tier.stripe()->contains(id_a));
  tier.audit();

  // The L2 serves the hit immediately (payload intact) and queues the
  // packet for promotion at the next update.
  auto hit = tier.find(0xA0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->packet->id, id_a);
  EXPECT_EQ(hit->packet->payload, util::BytesView(payload_of('a')));
  EXPECT_EQ(tier.tier_stats().l2_hits, 1u);
  EXPECT_TRUE(tier.stripe()->contains(id_a));  // promotion is deferred

  // The next update applies the promotion first: 'a' re-enters the L1
  // just below 'd' in recency, and the displaced 'b'/'c' demote.
  const std::uint64_t id_d =
      tier.update(payload_of('d'), anchors_at({{0, 0xD0}}), {});
  EXPECT_EQ(tier.tier_stats().promotions, 1u);
  EXPECT_FALSE(tier.stripe()->contains(id_a));
  EXPECT_TRUE(tier.store().contains(id_a));
  EXPECT_TRUE(tier.store().contains(id_d));
  EXPECT_TRUE(tier.stripe()->contains(id_b));
  EXPECT_TRUE(tier.stripe()->contains(id_c));
  EXPECT_EQ(tier.tier_stats().demotions, 3u);
  EXPECT_EQ(stale_entries(tier), 0u);
  tier.audit();
}

TEST(CacheTier, OverwrittenFingerprintLeavesExactlyOneOwner) {
  CacheConfig cc;
  cc.l1_bytes = 250;
  cc.l2_bytes = 64 * 1024;
  L2Store l2(cc, 1);
  CacheTier tier(cc, &l2);

  // 'a' demotes into the L2 holding fingerprint 0xF0 ...
  tier.update(payload_of('a'), anchors_at({{0, 0xF0}}), {});
  tier.update(payload_of('b'), anchors_at({{0, 0xB0}}), {});
  tier.update(payload_of('c'), anchors_at({{0, 0xC0}}), {});
  ASSERT_EQ(tier.l2_fingerprint_count(), 1u);
  // ... then a fresh packet claims 0xF0: the overwrite hands the entry
  // to the L1 packet (exactly-one-tier invariant).
  tier.update(payload_of('x'), anchors_at({{5, 0xF0}}), {});
  ASSERT_TRUE(tier.table().get(0xF0).has_value());
  EXPECT_TRUE(tier.store().contains(tier.table().get(0xF0)->packet_id));
  auto hit = tier.find(0xF0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->offset, 5u);
  EXPECT_EQ(hit->packet->payload, util::BytesView(payload_of('x')));
  EXPECT_EQ(tier.tier_stats().l2_hits, 0u);  // served from the L1
  tier.audit();
}

// ------------------------------------- reclamation / stale-fp audit --

TEST(CacheTier, NoStaleFingerprintsAfterDemotionThenL2Reclamation) {
  // Both budgets tiny, so every update demotes and the stripe share
  // evicts: the scenario the eager-purge invariant must survive.
  CacheConfig cc;
  cc.l1_bytes = 250;
  cc.l2_bytes = 350;  // three 100-byte payloads
  L2Store l2(cc, 1);
  CacheTier tier(cc, &l2);

  for (int i = 0; i < 24; ++i) {
    const auto fp = static_cast<rabin::Fingerprint>(0x1000 + i);
    tier.update(payload_of(static_cast<char>('a' + (i % 26))),
                anchors_at({{0, fp}, {50, fp + 0x100}}), {});
    EXPECT_EQ(stale_entries(tier), 0u) << "after update " << i;
    tier.audit();
  }
  EXPECT_GT(tier.tier_stats().demotions, 0u);
  EXPECT_GT(tier.tier_stats().l2_evictions, 0u);
  EXPECT_GT(tier.tier_stats().l2_fingerprints_purged, 0u);
  // A fingerprint whose packet was reclaimed from the L2 is a clean
  // miss everywhere — not a stale hit, not an audit trip.
  EXPECT_FALSE(tier.find(0x1000).has_value());
  EXPECT_EQ(tier.stats().stale_hits, 0u);
}

// ------------------------------------------- per-host-pair admission --

TEST(CacheTier, ElephantPairEvictsItsOwnColdestNeverTheMouses) {
  constexpr std::uint64_t kMouse = 0x1111;
  constexpr std::uint64_t kElephant = 0x2222;
  CacheConfig cc;
  cc.l1_bytes = 250;
  cc.l2_bytes = 64 * 1024;
  cc.per_host_pair_bytes = 300;  // three 100-byte payloads per pair
  L2Store l2(cc, 1);
  CacheTier tier(cc, &l2);

  const std::uint64_t id_m =
      tier.update(payload_of('m'), anchors_at({{0, 0xAA00}}),
                  meta_for(kMouse));
  // Elephant floods: each insert displaces the L1's LRU into the L2.
  std::vector<std::uint64_t> elephant_ids;
  for (int i = 0; i < 8; ++i) {
    const auto fp = static_cast<rabin::Fingerprint>(0xE000 + i);
    elephant_ids.push_back(tier.update(
        payload_of(static_cast<char>('0' + i)), anchors_at({{0, fp}}),
        meta_for(kElephant)));
    tier.audit();
  }

  // The elephant pair is pinned at its own budget ...
  EXPECT_GT(tier.tier_stats().host_evictions, 0u);
  EXPECT_LE(tier.stripe()->hosts().find(kElephant)->bytes,
            cc.per_host_pair_bytes);
  // ... and the evictions hit its own coldest packets, oldest first.
  EXPECT_FALSE(tier.stripe()->contains(elephant_ids[0]));
  // The mouse's bytes were never touched: still resident, still a hit.
  EXPECT_TRUE(tier.stripe()->contains(id_m));
  EXPECT_EQ(tier.stripe()->hosts().find(kMouse)->bytes, 100u);
  auto hit = tier.find(0xAA00);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->packet->id, id_m);
  EXPECT_EQ(stale_entries(tier), 0u);
  tier.audit();
}

TEST(CacheTier, AdmissionRejectsPacketsLargerThanAnyBudget) {
  {
    // Larger than the per-pair budget.
    CacheConfig cc;
    cc.l1_bytes = 100;
    cc.l2_bytes = 64 * 1024;
    cc.per_host_pair_bytes = 150;
    L2Store l2(cc, 1);
    CacheTier tier(cc, &l2);
    tier.update(payload_of('a', 200), anchors_at({{0, 0xA0}}),
                meta_for(7));
    tier.update(payload_of('b', 200), anchors_at({{0, 0xB0}}),
                meta_for(7));  // evicts 'a' -> demotion attempt
    EXPECT_EQ(tier.tier_stats().demotions, 1u);
    EXPECT_EQ(tier.tier_stats().demotions_rejected, 1u);
    EXPECT_EQ(tier.stripe()->size(), 0u);
    tier.audit();
  }
  {
    // Larger than the whole stripe share.
    CacheConfig cc;
    cc.l1_bytes = 100;
    cc.l2_bytes = 150;
    L2Store l2(cc, 1);
    CacheTier tier(cc, &l2);
    tier.update(payload_of('a', 200), anchors_at({{0, 0xA0}}), {});
    tier.update(payload_of('b', 200), anchors_at({{0, 0xB0}}), {});
    EXPECT_EQ(tier.tier_stats().demotions_rejected, 1u);
    EXPECT_EQ(tier.stripe()->size(), 0u);
    tier.audit();
  }
}

// ------------------------------------------ invalidation and flush --

TEST(CacheTier, InvalidateKillsThePacketInWhicheverTierHoldsIt) {
  CacheConfig cc;
  cc.l1_bytes = 250;
  cc.l2_bytes = 64 * 1024;
  L2Store l2(cc, 1);
  CacheTier tier(cc, &l2);
  const std::uint64_t id_a =
      tier.update(payload_of('a'), anchors_at({{0, 0xA0}}), {});
  tier.update(payload_of('b'), anchors_at({{0, 0xB0}}), {});
  tier.update(payload_of('c'), anchors_at({{0, 0xC0}}), {});
  ASSERT_TRUE(tier.stripe()->contains(id_a));

  // L2-resident victim: the NACKed packet must die, not demote deeper.
  EXPECT_TRUE(tier.invalidate(0xA0));
  EXPECT_FALSE(tier.stripe()->contains(id_a));
  EXPECT_FALSE(tier.find(0xA0).has_value());
  // L1-resident victim.
  EXPECT_TRUE(tier.invalidate(0xC0));
  EXPECT_FALSE(tier.find(0xC0).has_value());
  // Unknown fingerprint.
  EXPECT_FALSE(tier.invalidate(0x9999));
  EXPECT_EQ(stale_entries(tier), 0u);
  tier.audit();
}

TEST(CacheTier, FlushClearsBothTiers) {
  CacheConfig cc;
  cc.l1_bytes = 250;
  cc.l2_bytes = 64 * 1024;
  L2Store l2(cc, 1);
  CacheTier tier(cc, &l2);
  for (int i = 0; i < 6; ++i) {
    tier.update(payload_of(static_cast<char>('a' + i)),
                anchors_at({{0, static_cast<rabin::Fingerprint>(0xA0 + i)}}),
                {});
  }
  ASSERT_GT(tier.stripe()->size(), 0u);
  tier.flush();
  EXPECT_EQ(tier.store().size(), 0u);
  EXPECT_EQ(tier.fingerprint_count(), 0u);
  EXPECT_EQ(tier.stripe()->size(), 0u);
  EXPECT_EQ(tier.stripe()->bytes_used(), 0u);
  EXPECT_EQ(tier.l2_fingerprint_count(), 0u);
  EXPECT_FALSE(tier.find(0xA0).has_value());
  tier.audit();
}

// ---------------------------------------------- promotion buffers --

TEST(L2Stripe, PromoteDemoteCycleKeepsSlotCapacities) {
  // take() swaps fingerprint buffers with the promotion scratch instead
  // of moving the slot's out, so neither side ever drops to an empty
  // vector and a steady promote/demote cycle allocates nothing.
  CacheConfig cc;
  cc.l2_bytes = 64 * 1024;
  L2Store l2(cc, 1);
  FingerprintTable index;
  L2Store::Stripe* s = l2.attach(index);
  const Bytes payload = payload_of('p');
  L2Store::Stripe::Taken taken;
  taken.fps.reserve(256);
  for (std::uint64_t id = 1; id <= 16; ++id) {
    CachedPacket p;
    p.id = id;
    p.payload = PayloadView{payload.data(), payload.size()};
    for (std::uint64_t f = 0; f < 8; ++f) p.fps.push_back(id << 8 | f);
    ASSERT_TRUE(s->admit(p));
    const std::vector<rabin::Fingerprint>& resident = s->peek(id)->fps;
    // The reserved buffer is never lost: it is either the scratch's or
    // the slot's (the one reused slot holds whatever take() left it).
    EXPECT_EQ(std::max(taken.fps.capacity(), resident.capacity()), 256u)
        << "cycle " << id;
    const rabin::Fingerprint* buf = resident.data();
    ASSERT_TRUE(s->take(id, taken));
    EXPECT_EQ(taken.fps.data(), buf) << "cycle " << id;  // handed over
    EXPECT_EQ(taken.fps.size(), 8u);
    s->end_packet();
  }
}

// ------------------------------------------------- share eviction --

TEST(L2Eviction, LruEvictsTheRecencyTailRegardlessOfHits) {
  // Packet 1 ('a') takes four hits before packets 2..4 arrive, so by the
  // time the share overflows it is the most-hit packet but sits at the
  // recency tail: the share eviction takes it all the same.
  CacheConfig cc;
  cc.l2_bytes = 350;  // three 100-byte payloads
  L2Store l2(cc, 1);
  FingerprintTable index;
  L2Store::Stripe* s = l2.attach(index);
  const Bytes bufs[4] = {payload_of('a'), payload_of('b'), payload_of('c'),
                         payload_of('d')};
  const rabin::Fingerprint fps[4] = {0xA0, 0xB0, 0xC0, 0xD0};
  for (std::uint64_t i = 0; i < 4; ++i) {
    CachedPacket p;
    p.id = i + 1;
    p.payload = PayloadView{bufs[i].data(), bufs[i].size()};
    p.meta.host_key = 0x99;
    p.fps = {fps[i]};
    p.offsets = {0};
    index.put(fps[i], FpEntry{p.id, 0});
    ASSERT_TRUE(s->admit(p));
    if (i == 0) {
      bool enqueue = false;
      for (int h = 0; h < 4; ++h) ASSERT_NE(s->find(1, enqueue), nullptr);
    }
    s->end_packet();
  }
  s->audit();
  CacheTier::audit_index(index, PacketStore{}, s);
  EXPECT_EQ(s->stats().l2_evictions, 1u);
  EXPECT_EQ(index.size(), 3u);  // the victim's entry went with it
  EXPECT_FALSE(s->contains(1));  // 'a' was the tail
  EXPECT_TRUE(s->contains(2));
}

// ----------------------------------------------------- index audit --

TEST(CacheTierAudit, CatchesAnEntryNamingAPacketNoTierHolds) {
  if (!util::kAuditEnabled) GTEST_SKIP() << "audits compiled out";
  CacheConfig cc;
  cc.l1_bytes = 250;
  cc.l2_bytes = 64 * 1024;
  L2Store l2(cc, 1);
  CacheTier tier(cc, &l2);
  const std::uint64_t id_a =
      tier.update(payload_of('a'), anchors_at({{0, 0xA0}}), {});
  tier.update(payload_of('b'), anchors_at({{0, 0xB0}}), {});
  tier.update(payload_of('c'), anchors_at({{0, 0xC0}}), {});
  ASSERT_TRUE(tier.stripe()->contains(id_a));
  ASSERT_TRUE(tier.invalidate(0xA0));  // 'a' leaves the cache for good

  std::vector<std::string> failures;
  auto prev = util::set_check_failure_handler(
      [&](const util::CheckFailure& f) { failures.emplace_back(f.message); });
  // The live index spans both tiers and is clean ...
  CacheTier::audit_index(tier.table(), tier.store(), tier.stripe());
  EXPECT_TRUE(failures.empty());
  // ... but an entry left naming the invalidated packet must trip it.
  FingerprintTable bad = tier.table();
  bad.put(0xBAD, FpEntry{id_a, 0});
  CacheTier::audit_index(bad, tier.store(), tier.stripe());
  util::set_check_failure_handler(std::move(prev));
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("stale fingerprint entries"), std::string::npos)
      << failures[0];
}

TEST(CacheTierAudit, CatchesAMiscountedOwner) {
  // The per-owner entry counts let a victim owning nothing skip the
  // purge walk; a count that drifts from the entries would skip a purge
  // that had work to do.  The index rule holds every count exact.
  if (!util::kAuditEnabled) GTEST_SKIP() << "audits compiled out";
  CacheConfig cc;
  cc.l1_bytes = 250;
  cc.l2_bytes = 64 * 1024;
  L2Store l2(cc, 1);
  CacheTier tier(cc, &l2);
  const std::uint64_t id_a =
      tier.update(payload_of('a'), anchors_at({{0, 0xA0}, {10, 0xA1}}), {});
  tier.update(payload_of('b'), anchors_at({{0, 0xB0}}), {});
  tier.update(payload_of('c'), anchors_at({{0, 0xC0}}), {});
  ASSERT_TRUE(tier.stripe()->contains(id_a));  // demoted, counts intact
  EXPECT_EQ(tier.table().owned(id_a), 2u);

  std::vector<std::string> failures;
  auto prev = util::set_check_failure_handler(
      [&](const util::CheckFailure& f) { failures.emplace_back(f.message); });
  CacheTier::audit_index(tier.table(), tier.store(), tier.stripe());
  EXPECT_TRUE(failures.empty());
  FingerprintTable bad = tier.table();
  bad.skew_owner_count_for_test(id_a, +1);
  CacheTier::audit_index(bad, tier.store(), tier.stripe());
  util::set_check_failure_handler(std::move(prev));
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_NE(failures[0].find("owner count of packet"), std::string::npos)
      << failures[0];
}

// ------------------------------------------------------ ids across tiers --

TEST(CacheTier, NewIdsNeverReuseAnL2ResidentsId) {
  // The index finds a packet's tier by id, so ids must stay unique across
  // tiers — even when the newest id sits in the L2.
  CacheConfig cc;
  cc.l1_bytes = 150;  // one 100-byte payload
  cc.l2_bytes = 64 * 1024;
  L2Store l2(cc, 1);
  CacheTier tier(cc, &l2);
  const std::uint64_t id_a =
      tier.update(payload_of('a'), anchors_at({{0, 0xA0}}), {});
  const std::uint64_t id_b =
      tier.update(payload_of('b'), anchors_at({{0, 0xB0}}), {});
  ASSERT_TRUE(tier.find(0xA0).has_value());  // L2 hit: 'a' queued
  // An anchor-less update stores nothing but applies the promotion,
  // which demotes 'b' — the newest id — into the L2.
  tier.update(payload_of('c'), {}, {});
  ASSERT_TRUE(tier.store().contains(id_a));
  ASSERT_TRUE(tier.stripe()->contains(id_b));

  const std::uint64_t id_d =
      tier.update(payload_of('d'), anchors_at({{0, 0xD0}}), {});
  EXPECT_GT(id_d, id_b);
  auto hit = tier.find(0xB0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->packet->payload, util::BytesView(payload_of('b')));
  tier.audit();
}

// ------------------------------------- gateway-level pair isolation --

packet::PacketPtr pair_packet(std::uint32_t src, util::BytesView payload) {
  return packet::make_packet(src, testutil::kDstIp, packet::IpProto::kUdp,
                             Bytes(payload.begin(), payload.end()));
}

/// 100 mouse pairs plus one elephant pair through a real gateway pair:
/// the elephant floods unique content, every mouse re-sends its own
/// chunk each round.  The per-pair budget must keep every mouse's bytes
/// L2-resident, so mouse hit rates stay high — and the tier counters
/// must be visible in the gateways' obs snapshots.
TEST(TierIsolation, ElephantCannotStarveAHundredMousePairs) {
  constexpr int kMice = 100;
  constexpr int kRounds = 5;
  constexpr std::size_t kChunk = 1000;
  constexpr int kElephantPerRound = 60;

  core::GatewayConfig cfg;
  cfg.policy = core::PolicyKind::kNaive;
  cfg.cache.l1_bytes = 32 * 1024;  // far smaller than one round
  cfg.cache.l2_bytes = 8 * 1024 * 1024;
  cfg.cache.per_host_pair_bytes = 64 * 1024;

  util::Rng rng(testutil::test_seed(214));
  std::vector<Bytes> chunks;
  for (int m = 0; m < kMice; ++m) {
    chunks.push_back(testutil::random_bytes(rng, kChunk));
  }

  // Runs the workload and returns {mouse data bytes, mouse wire bytes,
  // mice with at least one hit in the final round}.
  struct Outcome {
    std::uint64_t data = 0;
    std::uint64_t wire = 0;
    int mice_hit_last_round = 0;
    obs::Snapshot enc_snap;
    obs::Snapshot dec_snap;
  };
  auto run = [&](int mice, bool with_elephant) {
    gateway::EncoderGateway enc(cfg);
    gateway::DecoderGateway dec(cfg);
    Outcome out;
    util::Rng erng(99);
    int round_hits = 0;
    Bytes decoded_payload;
    dec.set_sink([&](packet::PacketPtr p) {
      decoded_payload = std::move(p->payload);
    });
    std::uint64_t wire_len = 0;
    enc.set_sink([&](packet::PacketPtr p) {
      wire_len = p->payload.size();
      dec.receive(std::move(p));
    });
    for (int round = 0; round < kRounds; ++round) {
      round_hits = 0;
      for (int m = 0; m < mice; ++m) {
        const std::uint32_t src = 0x0A010000u + static_cast<std::uint32_t>(m);
        enc.receive(pair_packet(src, chunks[static_cast<std::size_t>(m)]));
        EXPECT_EQ(decoded_payload, chunks[static_cast<std::size_t>(m)])
            << "mouse " << m << " round " << round;
        out.data += kChunk;
        out.wire += wire_len;
        if (wire_len < kChunk) ++round_hits;
      }
      if (with_elephant) {
        for (int i = 0; i < kElephantPerRound; ++i) {
          const Bytes noise = testutil::random_bytes(erng, 1400);
          enc.receive(pair_packet(0x0A02FFFFu, noise));
          EXPECT_EQ(decoded_payload, noise);
        }
      }
    }
    out.mice_hit_last_round = round_hits;
    out.enc_snap = enc.snapshot();
    out.dec_snap = dec.snapshot();
    if (enc.encoder() != nullptr) enc.encoder()->audit();
    return out;
  };

  const Outcome alone = run(1, /*with_elephant=*/false);
  const Outcome crowd = run(kMice, /*with_elephant=*/true);

  // The elephant cannot push any mouse's hit rate to zero: by the last
  // round every mouse's chunk is still being matched.
  EXPECT_EQ(crowd.mice_hit_last_round, kMice);

  // A mouse pair's wire ratio stays within 5% of its single-pair value
  // despite 100x the pairs plus the elephant flood.
  const double r_alone =
      static_cast<double>(alone.wire) / static_cast<double>(alone.data);
  const double r_crowd =
      static_cast<double>(crowd.wire) / static_cast<double>(crowd.data);
  EXPECT_LT(r_alone, 0.6);  // the workload really is redundant
  EXPECT_NEAR(r_crowd, r_alone, 0.05 * r_alone);

  // The tier counters are visible in the obs snapshots, on both sides.
  for (const obs::Snapshot* snap : {&crowd.enc_snap, &crowd.dec_snap}) {
    const char* side = snap == &crowd.enc_snap ? "encoder" : "decoder";
    const std::string prefix = std::string(side) + ".cache.";
    EXPECT_GT(snap->counter(prefix + "tier.demotions"), 0u) << side;
    EXPECT_GT(snap->counter(prefix + "tier.l2_hits"), 0u) << side;
    EXPECT_GT(snap->counter(prefix + "tier.promotions"), 0u) << side;
    EXPECT_GT(snap->counter(prefix + "tier.host_evictions"), 0u) << side;
    EXPECT_GE(snap->gauge(prefix + "l2_host_pairs"),
              static_cast<double>(kMice))
        << side;
    EXPECT_GT(snap->gauge(prefix + "l2_bytes_stored"), 0.0) << side;
  }
}

// ------------------------------------------------- tier telemetry --

TEST(TierTelemetry, FingerprintGaugesPartitionTheIndex) {
  // <side>.cache.fingerprints counts entries owned by L1 residents and
  // <side>.cache.l2_fingerprints those owned by L2 residents: with every
  // entry in exactly one tier, the two sum to the codec's one index.
  core::GatewayConfig cfg;
  cfg.policy = core::PolicyKind::kNaive;
  cfg.cache.l1_bytes = 16 * 1024;
  cfg.cache.l2_bytes = 1024 * 1024;
  gateway::EncoderGateway enc(cfg);
  gateway::DecoderGateway dec(cfg);
  dec.set_sink([](packet::PacketPtr) {});
  enc.set_sink([&](packet::PacketPtr p) { dec.receive(std::move(p)); });
  // A cycle larger than the L1: packets demote while still owning their
  // entries, so the L2 ends up owning a share of the index.
  util::Rng rng(testutil::test_seed(215));
  std::vector<Bytes> chunks;
  for (int c = 0; c < 64; ++c) {
    chunks.push_back(testutil::random_bytes(rng, 1000));
  }
  for (int round = 0; round < 2; ++round) {
    for (const Bytes& c : chunks) enc.receive(pair_packet(0x0A030001u, c));
  }
  const std::pair<obs::Snapshot, const CacheTier*> sides[] = {
      {enc.snapshot(), &enc.encoder()->cache()},
      {dec.snapshot(), &dec.decoder()->cache()}};
  for (const auto& [snap, cache] : sides) {
    const std::string prefix =
        cache == &enc.encoder()->cache() ? "encoder.cache." : "decoder.cache.";
    const double l1 = snap.gauge(prefix + "fingerprints");
    const double l2 = snap.gauge(prefix + "l2_fingerprints");
    EXPECT_GT(l1, 0.0) << prefix;
    EXPECT_GT(l2, 0.0) << prefix;
    EXPECT_EQ(l1 + l2, static_cast<double>(cache->table().size())) << prefix;
  }
}

}  // namespace
}  // namespace bytecache::cache
