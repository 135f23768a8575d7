// Tier equivalence suite (DESIGN.md §14).
//
// The CacheTier facade must be invisible on the wire whenever the L2
// never comes into play: for every tracked data-plane configuration, a
// codec pair with an attached-but-idle L2 (unbounded L1, so nothing ever
// demotes) must emit byte-identical wire traffic to the plain flat-cache
// codec — the pre-tier behavior, which no-L2 CacheTier *is*.
//
// Where the L2 does engage (a bounded L1 under an eviction-heavy
// stream), the tier may only help: decode stays lossless and the wire
// never grows, with demotions, L2 hits, and promotions all observed.

#include <gtest/gtest.h>

#include <cstdio>
#include <optional>
#include <utility>
#include <vector>

#include "cache/cache_config.h"
#include "cache/l2_store.h"
#include "core/decoder.h"
#include "core/encoder.h"
#include "packet/packet.h"
#include "tests/testutil.h"
#include "util/rng.h"

namespace bytecache {
namespace {

using testutil::random_bytes;
using testutil::segment_stream;
using testutil::test_encoder;
using util::Bytes;
using util::Rng;

struct E2EConfig {
  const char* name;
  core::PolicyKind policy;
  core::SelectMode mode;
  std::size_t cache_bytes;
  bool epoch_resync;
};

// The six tracked data-plane configurations (mirrors
// tests/simd_kernel_test.cc and bench_throughput's workload list).
constexpr E2EConfig kConfigs[] = {
    {"naive_valuesampling", core::PolicyKind::kNaive,
     core::SelectMode::kValueSampling, 0, false},
    {"naive_maxp", core::PolicyKind::kNaive, core::SelectMode::kMaxp, 0,
     false},
    {"naive_samplebyte", core::PolicyKind::kNaive,
     core::SelectMode::kSampleByte, 0, false},
    {"tcpseq_valuesampling", core::PolicyKind::kTcpSeq,
     core::SelectMode::kValueSampling, 0, false},
    {"naive_bounded256k", core::PolicyKind::kNaive,
     core::SelectMode::kValueSampling, 256 * 1024, false},
    {"kdistance_resync_valuesampling", core::PolicyKind::kKDistance,
     core::SelectMode::kValueSampling, 0, true},
};

/// Encodes `object` under `cfg` with the given cache configuration
/// (optionally tier-backed) and returns the exact wire bytes, verifying
/// lossless decode along the way.  When `cache.has_l2()`, each side gets
/// its own single-stripe store, exactly as a plain gateway provisions.
std::vector<Bytes> wire_bytes_under(const E2EConfig& cfg, const Bytes& object,
                                    const cache::CacheConfig& cache,
                                    cache::TierStats* enc_tier = nullptr) {
  core::DreParams params;
  params.select_mode = cfg.mode;
  params.epoch_resync = cfg.epoch_resync;
  std::unique_ptr<cache::L2Store> enc_l2, dec_l2;
  if (cache.has_l2()) {
    enc_l2 = std::make_unique<cache::L2Store>(cache, 1);
    dec_l2 = std::make_unique<cache::L2Store>(cache, 1);
  }
  core::Encoder enc =
      test_encoder(cfg.policy, params, cache, enc_l2.get());
  core::Decoder dec(params, cache, dec_l2.get());
  std::vector<Bytes> wire;
  for (const auto& pkt : segment_stream(object)) {
    const Bytes original = pkt->payload;
    enc.process(*pkt);
    wire.push_back(pkt->payload);
    const auto dinfo = dec.process(*pkt);
    EXPECT_FALSE(core::is_drop(dinfo.status)) << cfg.name;
    EXPECT_EQ(pkt->payload, original) << cfg.name;
  }
  enc.audit();
  dec.audit();
  if (enc_tier != nullptr) *enc_tier = enc.cache().tier_stats();
  return wire;
}

/// A redundant stream: repeated Zipf-drawn chunks with noise, sized so
/// the bounded configs see real eviction churn.
Bytes redundant_object(Rng& rng) {
  Bytes object;
  std::vector<Bytes> chunks;
  for (int i = 0; i < 6; ++i) {
    chunks.push_back(random_bytes(rng, 500 + 100 * static_cast<std::size_t>(i)));
  }
  for (int i = 0; i < 100; ++i) {
    const Bytes& c = chunks[rng.zipf(chunks.size(), 1.0)];
    object.insert(object.end(), c.begin(), c.end());
    const Bytes noise = random_bytes(rng, rng.uniform(50, 400));
    object.insert(object.end(), noise.begin(), noise.end());
  }
  return object;
}

/// A cyclic stream: `kCycleChunks` distinct 1 KiB chunks replayed in
/// order `reps` times.  The cycle (~128 KiB) exceeds a small L1, so by
/// the time a chunk recurs its packet has been evicted — while still
/// owning its fingerprints, which is what populates the L2 index.  This
/// is the working set shape the tier exists for; the Zipf-redundant
/// stream above never engages the L2, because its hot fingerprints are
/// perpetually re-owned by fresh L1 insertions.
Bytes cyclic_object(Rng& rng, int reps = 3) {
  constexpr int kCycleChunks = 128;
  std::vector<Bytes> chunks;
  for (int i = 0; i < kCycleChunks; ++i) {
    chunks.push_back(random_bytes(rng, 1024));
  }
  Bytes object;
  for (int r = 0; r < reps; ++r) {
    for (const Bytes& c : chunks) {
      object.insert(object.end(), c.begin(), c.end());
    }
  }
  return object;
}

std::uint64_t total(const std::vector<Bytes>& wire) {
  std::uint64_t n = 0;
  for (const Bytes& b : wire) n += b.size();
  return n;
}

TEST(TierEquiv, IdleL2IsByteTransparentForEveryConfig) {
  Rng rng(testutil::test_seed(301));
  const Bytes object = redundant_object(rng);
  for (const E2EConfig& cfg : kConfigs) {
    if (cfg.cache_bytes != 0) continue;  // bounded: the L2 engages
    cache::CacheConfig flat;  // unbounded L1, no L2: the pre-tier cache
    const std::vector<Bytes> baseline = wire_bytes_under(cfg, object, flat);

    cache::CacheConfig tiered = flat;
    tiered.l2_bytes = 4 * 1024 * 1024;
    tiered.per_host_pair_bytes = 256 * 1024;
    cache::TierStats stats;
    const std::vector<Bytes> wired =
        wire_bytes_under(cfg, object, tiered, &stats);

    // Nothing demoted, so the tier must not have changed a single byte.
    EXPECT_EQ(stats.demotions, 0u) << cfg.name;
    ASSERT_EQ(wired.size(), baseline.size()) << cfg.name;
    for (std::size_t i = 0; i < wired.size(); ++i) {
      ASSERT_EQ(wired[i], baseline[i]) << cfg.name << " packet " << i;
    }
  }
}

TEST(TierEquiv, EngagedTierOnlyEverShrinksTheWire) {
  // Under the bounded config the L1 churns; with an L2 behind it the
  // evictees stay reachable, so compression can only improve — and the
  // whole demote/hit/promote cycle must actually run.
  Rng rng(testutil::test_seed(304));
  const Bytes object = cyclic_object(rng);
  const E2EConfig& bounded = kConfigs[4];

  cache::CacheConfig flat;
  flat.l1_bytes = 64 * 1024;  // small enough to churn hard
  const std::vector<Bytes> flat_wire =
      wire_bytes_under(bounded, object, flat);

  cache::CacheConfig tiered = flat;
  tiered.l2_bytes = 4 * 1024 * 1024;
  cache::TierStats stats;
  const std::vector<Bytes> tier_wire =
      wire_bytes_under(bounded, object, tiered, &stats);

  EXPECT_GT(stats.demotions, 0u);
  EXPECT_GT(stats.l2_hits, 0u);
  EXPECT_GT(stats.promotions, 0u);
  EXPECT_LE(total(tier_wire), total(flat_wire));
}

TEST(TierEquiv, ZipfPolicyStaysLosslessUnderL2Pressure) {
  // A tight L2 share forces LRU stripe evictions on both sides; decode
  // must stay lossless and the codecs in lockstep (wire_bytes_under
  // asserts both).
  Rng rng(testutil::test_seed(305));
  const Bytes object = cyclic_object(rng);
  const E2EConfig& bounded = kConfigs[4];

  cache::CacheConfig cc;
  cc.l1_bytes = 64 * 1024;
  // Tight: smaller than the cycle, so the stripe share evicts
  // constantly — but L1 + L2 together outlive one cycle, so recurring
  // chunks still hit.
  cc.l2_bytes = 96 * 1024;
  cache::TierStats stats;
  (void)wire_bytes_under(bounded, object, cc, &stats);
  EXPECT_GT(stats.l2_evictions, 0u);
  EXPECT_GT(stats.l2_hits, 0u);
}

// ------------------------------------------------ pinned tiered wire --
//
// One seeded stream through a paired Encoder -> Decoder with an L2
// attached, driving every tier path the index serves: demotion, L2 hit
// and deferred promotion, host-budget eviction, oversize rejection,
// stripe-share eviction, NACK invalidation of an L2-resident packet, and
// flush.  The digest covers every wire payload and coded repair plus the
// decode outcomes; together with the final movement counters it pins the
// tiered wire exactly.

/// FNV-1a over a length-prefixed byte run, folded into `h`.
std::uint64_t fnv1a(std::uint64_t h, util::BytesView bytes) {
  const auto mix = [&h](std::uint8_t b) {
    h ^= b;
    h *= 0x100000001B3ull;
  };
  const std::uint64_t n = bytes.size();
  for (int i = 0; i < 8; ++i) mix(static_cast<std::uint8_t>(n >> (8 * i)));
  for (std::uint8_t b : bytes) mix(b);
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ull;

struct TierDigest {
  std::uint64_t wire = 0;  // wire payloads, repairs, decode outcomes
  cache::TierStats enc;
  cache::TierStats dec;
};

TierDigest run_tiered_stream() {
  constexpr std::uint32_t kPairs = 24;
  constexpr std::size_t kOversize = 2600;  // over the per-pair budget
  core::DreParams params;
  params.coded_repair = true;
  cache::CacheConfig cc;
  cc.l1_bytes = 12 * 1024;
  cc.l2_bytes = 20 * 1024;
  cc.per_host_pair_bytes = 2 * 1024;
  cache::L2Store enc_l2(cc, 1);
  cache::L2Store dec_l2(cc, 1);
  core::Encoder enc =
      test_encoder(core::PolicyKind::kNaive, params, cc, &enc_l2);
  core::Decoder dec(params, cc, &dec_l2);

  Rng rng(0x71E2D16E57ull);
  std::vector<std::vector<Bytes>> chunks(kPairs);
  for (auto& pair_chunks : chunks) {
    for (int c = 0; c < 3; ++c) {
      const std::size_t n =
          rng.chance(0.1) ? kOversize : rng.uniform(200, 1800);
      pair_chunks.push_back(random_bytes(rng, n));
    }
  }
  TierDigest d;
  d.wire = kFnvBasis;
  std::uint64_t uid = 0;
  auto send = [&](int n) {
    for (int i = 0; i < n; ++i) {
      const auto pair = static_cast<std::uint32_t>(rng.zipf(kPairs, 0.7));
      Bytes payload = rng.chance(0.65)
                          ? chunks[pair][rng.uniform(0, 2)]
                          : random_bytes(rng, rng.uniform(200, 1800));
      auto pkt = packet::make_packet(0x0A000200 + pair, testutil::kDstIp,
                                     packet::IpProto::kUdp, payload);
      // Caches record the trace uid; a process-wide counter would make
      // the cache contents depend on which tests ran first.
      pkt->uid = ++uid;
      const core::EncodeInfo info = enc.process(*pkt);
      d.wire = fnv1a(d.wire, pkt->payload);
      for (const Bytes& rep : info.repairs) d.wire = fnv1a(d.wire, rep);
      const core::DecodeInfo dinfo = dec.process(*pkt);
      const std::uint8_t outcome[2] = {
          static_cast<std::uint8_t>(dinfo.status),
          static_cast<std::uint8_t>(pkt->payload == payload ? 1 : 0)};
      d.wire = fnv1a(d.wire, outcome);
    }
  };
  send(900);
  enc.audit();
  dec.audit();

  // NACK the lowest fingerprint whose owner sits in the encoder's L2.
  std::optional<rabin::Fingerprint> victim;
  std::uint64_t victim_id = 0;
  enc.cache().table().for_each(
      [&](rabin::Fingerprint fp, const cache::FpEntry& e) {
        if (enc.cache().stripe()->contains(e.packet_id) &&
            (!victim || fp < *victim)) {
          victim = fp;
          victim_id = e.packet_id;
        }
      });
  EXPECT_TRUE(victim.has_value());
  if (victim) {
    enc.on_nack(*victim);
    EXPECT_EQ(enc.stats().nack_invalidations, 1u);
    EXPECT_FALSE(enc.cache().stripe()->contains(victim_id));
    EXPECT_FALSE(enc.cache().table().get(*victim).has_value());
  }
  send(100);
  enc.flush();
  dec.flush();
  send(100);
  enc.audit();
  dec.audit();
  d.enc = enc.cache().tier_stats();
  d.dec = dec.cache().tier_stats();
  return d;
}

void expect_digest(const TierDigest& d, const TierDigest& golden) {
  // Printed so a deliberate wire change can re-pin the golden.
  std::printf("0x%016llX\n", static_cast<unsigned long long>(d.wire));
  for (const cache::TierStats* s : {&d.enc, &d.dec}) {
    std::printf("{%llu, %llu, %llu, %llu, %llu, %llu, %llu}\n",
                static_cast<unsigned long long>(s->l2_hits),
                static_cast<unsigned long long>(s->promotions),
                static_cast<unsigned long long>(s->demotions),
                static_cast<unsigned long long>(s->demotions_rejected),
                static_cast<unsigned long long>(s->l2_evictions),
                static_cast<unsigned long long>(s->host_evictions),
                static_cast<unsigned long long>(s->l2_fingerprints_purged));
  }
  // Every tier path ran ...
  EXPECT_GT(d.enc.l2_hits, 0u);
  EXPECT_GT(d.enc.promotions, 0u);
  EXPECT_GT(d.enc.demotions_rejected, 0u);
  EXPECT_GT(d.enc.l2_evictions, 0u);
  EXPECT_GT(d.enc.host_evictions, 0u);
  // ... and the wire and counters are the pinned ones.
  EXPECT_EQ(d.wire, golden.wire);
  for (const auto& [got, want] : {std::pair{d.enc, golden.enc},
                                  std::pair{d.dec, golden.dec}}) {
    EXPECT_EQ(got.l2_hits, want.l2_hits);
    EXPECT_EQ(got.promotions, want.promotions);
    EXPECT_EQ(got.demotions, want.demotions);
    EXPECT_EQ(got.demotions_rejected, want.demotions_rejected);
    EXPECT_EQ(got.l2_evictions, want.l2_evictions);
    EXPECT_EQ(got.host_evictions, want.host_evictions);
    EXPECT_EQ(got.l2_fingerprints_purged, want.l2_fingerprints_purged);
  }
}

TEST(TierEquiv, TieredWireIsPinnedUnderLru) {
  const TierDigest golden{
      // Loss-sized repair: 128 repairs over 68 clean generations (the
      // 64 start-up ones), where a fixed R = 2 sent 136.
      .wire = 0x63F140FF0CBF83B3ull,
      // The decoder never saw the NACK: one more share eviction.
      .enc = {138, 138, 980, 69, 277, 448, 45809},
      .dec = {138, 138, 980, 69, 278, 448, 45809}};
  expect_digest(run_tiered_stream(), golden);
}

}  // namespace
}  // namespace bytecache
