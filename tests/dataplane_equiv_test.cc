// Randomized equivalence tests for the zero-allocation data plane.
//
// The fast paths (inlined scan, flat fingerprint table, pooled packet
// store, per-codec scratch buffers) are drop-in replacements for simpler
// reference implementations; these tests pin each one against its
// reference on random inputs so a behavioural drift cannot hide behind a
// performance win:
//   - template scan vs the type-erased scan vs full recomputation,
//   - RollingWindow vs RabinTables::of at every offset,
//   - FlatMap64 / FingerprintTable vs std::unordered_map,
//   - each selection scheme vs a naive reference across a parameter
//     sweep (maxp_p including powers of two, select_bits, SAMPLEBYTE
//     period/skip) — parameter-dependent paths like the MAXP ring sizing
//     only misbehave at non-default values,
//   - workspace-based anchor computation vs the by-value form,
//   - encoder bit-determinism across independent instances, and
//   - the eviction purge keeping the fingerprint table free of stale
//     entries under heavy churn.
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "cache/cache_tier.h"
#include "util/flat_map.h"
#include "core/anchors.h"
#include "core/decoder.h"
#include "core/encoder.h"
#include "core/policies.h"
#include "tests/testutil.h"
#include "util/rng.h"

namespace bytecache {
namespace {

using testutil::test_encoder;
using testutil::random_bytes;
using testutil::segment_stream;
using util::Bytes;
using util::Rng;

struct OffsetFp {
  std::size_t offset;
  rabin::Fingerprint fp;

  friend bool operator==(const OffsetFp&, const OffsetFp&) = default;
};

// ----------------------------------------------------------- scanning --

TEST(ScanEquiv, TemplateVsErasedVsRecompute) {
  const rabin::RabinTables tables(16);
  Rng rng(testutil::test_seed(101));
  for (int trial = 0; trial < 50; ++trial) {
    // Cover the degenerate sizes: empty, below, at, and above the window.
    const std::size_t n = trial < 4 ? static_cast<std::size_t>(trial * 8)
                                    : rng.uniform(1, 2000);
    const Bytes payload = random_bytes(rng, n);

    std::vector<OffsetFp> inlined;
    const std::size_t count_inlined =
        rabin::scan(tables, payload, [&](std::size_t off, rabin::Fingerprint fp) {
          inlined.push_back({off, fp});
        });

    std::vector<OffsetFp> erased;
    const std::size_t count_erased = rabin::scan_erased(
        tables, payload, [&](std::size_t off, rabin::Fingerprint fp) {
          erased.push_back({off, fp});
        });

    EXPECT_EQ(count_inlined, count_erased);
    EXPECT_EQ(inlined, erased);
    EXPECT_EQ(count_inlined, n < 16 ? 0 : n - 16 + 1);
    // Every reported fingerprint equals a from-scratch recomputation of
    // the window it covers.
    for (const OffsetFp& a : inlined) {
      EXPECT_EQ(a.fp, tables.of(util::BytesView(payload).subspan(a.offset, 16)))
          << "offset " << a.offset;
    }
  }
}

TEST(RollingWindowEquiv, MatchesRecomputeAtEveryOffset) {
  const rabin::RabinTables tables(16);
  Rng rng(testutil::test_seed(102));
  const Bytes payload = random_bytes(rng, 700);
  rabin::RollingWindow win(tables);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    const bool full = win.feed(payload[i]);
    EXPECT_EQ(full, i + 1 >= 16);
    EXPECT_EQ(full, win.full());
    if (full) {
      const std::size_t off = i + 1 - 16;
      EXPECT_EQ(win.fingerprint(),
                tables.of(util::BytesView(payload).subspan(off, 16)))
          << "offset " << off;
    }
  }
}

TEST(RollingWindowEquiv, ResetMatchesFreshWindow) {
  const rabin::RabinTables tables(16);
  Rng rng(testutil::test_seed(103));
  const Bytes payload = random_bytes(rng, 64);
  rabin::RollingWindow reused(tables);
  for (std::uint8_t b : payload) reused.feed(b);
  reused.reset();
  EXPECT_FALSE(reused.full());
  rabin::RollingWindow fresh(tables);
  for (std::uint8_t b : payload) {
    reused.feed(b);
    fresh.feed(b);
    EXPECT_EQ(reused.fingerprint(), fresh.fingerprint());
  }
}

// ---------------------------------------------------------- flat table --

TEST(FlatMapEquiv, RandomOpsMatchUnorderedMap) {
  util::FlatMap64<std::uint64_t> flat;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(testutil::test_seed(104));
  for (int op = 0; op < 20000; ++op) {
    // A small key pool (with the low bits zeroed, like real selected
    // fingerprints) forces overwrites, hits, and probe-chain collisions.
    const std::uint64_t key = rng.uniform(0, 300) << 4;
    switch (rng.uniform(0, 3)) {
      case 0:
      case 1: {  // put (biased: tables grow)
        const std::uint64_t value = rng.next_u64();
        flat.put(key, value);
        ref[key] = value;
        break;
      }
      case 2: {  // find
        const std::uint64_t* v = flat.find(key);
        auto it = ref.find(key);
        ASSERT_EQ(v != nullptr, it != ref.end());
        if (v != nullptr) {
          ASSERT_EQ(*v, it->second);
        }
        break;
      }
      case 3: {  // erase
        ASSERT_EQ(flat.erase(key), ref.erase(key) > 0);
        break;
      }
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
  // Full-content sweep: every surviving pair matches the reference.
  std::size_t visited = 0;
  flat.for_each([&](std::uint64_t key, std::uint64_t value) {
    ++visited;
    auto it = ref.find(key);
    ASSERT_NE(it, ref.end()) << "key " << key << " not in reference";
    ASSERT_EQ(value, it->second);
  });
  EXPECT_EQ(visited, ref.size());
}

// erase_if is the one-probe form of find-then-erase: the same erasures
// in the same order must leave the same slot layout, which for_each's
// visiting order exposes.  Both maps are sized past 2 MiB of slots, so
// they sit on the huge-page allocation path.
TEST(FlatMapEquiv, EraseIfKeepsTheFindThenEraseLayout) {
  util::FlatMap64<std::uint64_t> one_probe;
  util::FlatMap64<std::uint64_t> two_probe;
  one_probe.reserve(150000);
  two_probe.reserve(150000);
  ASSERT_GE(one_probe.capacity() * 3 * sizeof(std::uint64_t),
            util::kHugePageBytes);
  Rng rng(testutil::test_seed(106));
  for (int op = 0; op < 200000; ++op) {
    const std::uint64_t key = rng.uniform(0, 60000) << 4;
    const std::uint64_t value = rng.uniform(0, 3);
    if (rng.uniform(0, 2) != 0) {
      one_probe.put(key, value);
      two_probe.put(key, value);
      continue;
    }
    // Erase only entries holding `value`, as the purge erases only the
    // entries its packet still owns.
    const bool erased = one_probe.erase_if(
        key, [&](const std::uint64_t& v) { return v == value; });
    const std::uint64_t* found = two_probe.find(key);
    const bool match = found != nullptr && *found == value;
    if (match) two_probe.erase(key);
    ASSERT_EQ(erased, match) << "op " << op;
  }
  using Pairs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  const auto visit = [](const util::FlatMap64<std::uint64_t>& map) {
    Pairs out;
    map.for_each(
        [&](std::uint64_t k, std::uint64_t v) { out.emplace_back(k, v); });
    return out;
  };
  EXPECT_EQ(visit(one_probe), visit(two_probe));
  EXPECT_EQ(one_probe.size(), two_probe.size());
}

TEST(FingerprintTableEquiv, RandomOpsMatchReferenceModel) {
  cache::FingerprintTable table;
  std::unordered_map<std::uint64_t, cache::FpEntry> ref;
  Rng rng(testutil::test_seed(105));
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t fp = rng.uniform(0, 400) << 4;
    switch (rng.uniform(0, 4)) {
      case 0:
      case 1: {  // put
        cache::FpEntry e;
        e.packet_id = rng.uniform(1, 50);
        e.offset = static_cast<std::uint16_t>(rng.uniform(0, 1459));
        table.put(fp, e);
        ref[fp] = e;
        break;
      }
      case 2: {  // get
        auto got = table.get(fp);
        auto it = ref.find(fp);
        ASSERT_EQ(got.has_value(), it != ref.end());
        if (got) {
          ASSERT_EQ(got->packet_id, it->second.packet_id);
          ASSERT_EQ(got->offset, it->second.offset);
        }
        break;
      }
      case 3: {  // erase
        table.erase(fp);
        ref.erase(fp);
        break;
      }
      case 4: {  // erase_if_owner: only removes a matching owner
        const std::uint64_t owner = rng.uniform(1, 50);
        auto it = ref.find(fp);
        const bool expect =
            it != ref.end() && it->second.packet_id == owner;
        ASSERT_EQ(table.erase_if_owner(fp, owner), expect);
        if (expect) ref.erase(it);
        break;
      }
    }
    ASSERT_EQ(table.size(), ref.size());
  }
}

// ---------------------------------------------------- selection sweeps --

/// Brute-force MAXP reference: for every window of `p` consecutive
/// positions, take the rightmost maximum-fingerprint position by direct
/// argmax over recomputed fingerprints (O(n*p); no monotonic queue, so
/// it shares no machinery with the implementation under test).
std::vector<rabin::Anchor> maxp_reference(const rabin::RabinTables& tables,
                                          util::BytesView payload,
                                          std::size_t p) {
  std::vector<rabin::Anchor> out;
  const std::size_t w = tables.window();
  if (payload.size() < w || p == 0) return out;
  std::vector<rabin::Fingerprint> fps;
  for (std::size_t i = 0; i + w <= payload.size(); ++i) {
    fps.push_back(tables.of(payload.subspan(i, w)));
  }
  std::size_t last = fps.size();  // sentinel: no anchor emitted yet
  for (std::size_t end = p - 1; end < fps.size(); ++end) {
    std::size_t best = end + 1 - p;
    for (std::size_t j = best + 1; j <= end; ++j) {
      if (fps[j] >= fps[best]) best = j;  // >=: rightmost wins ties
    }
    if (best != last) {
      last = best;
      out.push_back(rabin::Anchor{static_cast<std::uint16_t>(best), fps[best]});
    }
  }
  return out;
}

// Sweeps p across powers of two (where a ring sized bit_ceil(p) == p
// would be overwritten by the transient p+1-th candidate), their
// neighbours, and the default 31.
TEST(MaxpEquiv, MatchesBruteForceReferenceAcrossP) {
  const rabin::RabinTables tables(16);
  Rng rng(testutil::test_seed(110));
  rabin::MaxpScratch scratch;  // reused across p values, like the codecs
  std::vector<rabin::Anchor> out;
  for (const std::size_t p : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{4}, std::size_t{5}, std::size_t{7},
                              std::size_t{8}, std::size_t{9}, std::size_t{15},
                              std::size_t{16}, std::size_t{17},
                              std::size_t{31}, std::size_t{32},
                              std::size_t{33}, std::size_t{64},
                              std::size_t{65}}) {
    for (int trial = 0; trial < 20; ++trial) {
      // Narrow byte alphabet: repeated values produce fingerprint ties,
      // exercising the rightmost-wins rule.
      std::size_t n = rng.uniform(1, 1460);
      Bytes payload(n);
      for (auto& b : payload) {
        b = static_cast<std::uint8_t>(rng.uniform(0, trial % 2 ? 3 : 255));
      }
      const auto expected = maxp_reference(tables, payload, p);
      rabin::selected_anchors_maxp_into(tables, payload, p, out, scratch);
      ASSERT_EQ(out, expected) << "p=" << p << " n=" << n;
      ASSERT_EQ(out, rabin::selected_anchors_maxp(tables, payload, p))
          << "p=" << p << " n=" << n;
    }
  }
}

TEST(ValueSamplingEquiv, MatchesRecomputeReferenceAcrossSelectBits) {
  const rabin::RabinTables tables(16);
  Rng rng(testutil::test_seed(111));
  for (const unsigned bits : {0u, 1u, 2u, 4u, 8u, 12u}) {
    for (int trial = 0; trial < 10; ++trial) {
      const Bytes payload = random_bytes(rng, rng.uniform(1, 1460));
      std::vector<rabin::Anchor> expected;
      for (std::size_t i = 0; i + 16 <= payload.size(); ++i) {
        const auto fp = tables.of(util::BytesView(payload).subspan(i, 16));
        if (rabin::selected(fp, bits)) {
          expected.push_back(rabin::Anchor{static_cast<std::uint16_t>(i), fp});
        }
      }
      ASSERT_EQ(rabin::selected_anchors(tables, payload, bits), expected)
          << "bits=" << bits << " n=" << payload.size();
    }
  }
}

TEST(SampleByteEquiv, MatchesNaiveReferenceAcrossPeriodAndSkip) {
  const rabin::RabinTables tables(16);
  Rng rng(testutil::test_seed(112));
  for (const unsigned period : {1u, 2u, 4u, 16u, 64u, 256u}) {
    for (const std::size_t skip :
         {std::size_t{0}, std::size_t{1}, std::size_t{8}, std::size_t{16},
          std::size_t{300}}) {
      for (int trial = 0; trial < 5; ++trial) {
        const Bytes payload = random_bytes(rng, rng.uniform(1, 1460));
        // Naive reference: per-byte hash + division, no membership bitmap.
        std::vector<rabin::Anchor> expected;
        for (std::size_t i = 0; i + 16 <= payload.size();) {
          std::uint64_t state = payload[i];
          if (util::splitmix64(state) % period == 0) {
            expected.push_back(rabin::Anchor{
                static_cast<std::uint16_t>(i),
                tables.of(util::BytesView(payload).subspan(i, 16))});
            i += skip > 0 ? skip : 1;
          } else {
            ++i;
          }
        }
        ASSERT_EQ(
            rabin::selected_anchors_samplebyte(tables, payload, period, skip),
            expected)
            << "period=" << period << " skip=" << skip;
      }
    }
  }
}

// ------------------------------------------------------------- anchors --

TEST(AnchorEquiv, WorkspaceMatchesByValueForEverySelectMode) {
  const rabin::RabinTables tables(16);
  Rng rng(testutil::test_seed(106));
  core::AnchorWorkspace ws;  // deliberately reused across payloads/modes
  for (int trial = 0; trial < 30; ++trial) {
    const Bytes payload = random_bytes(rng, rng.uniform(1, 1460));
    for (core::SelectMode mode :
         {core::SelectMode::kValueSampling, core::SelectMode::kMaxp,
          core::SelectMode::kSampleByte}) {
      core::DreParams params;
      params.select_mode = mode;
      // Sweep away from the defaults (select_bits=4, maxp_p=31,
      // period=16/skip=8) so parameter-dependent paths — notably the
      // power-of-two MAXP ring — are hit too.
      for (const unsigned variant : {0u, 1u, 2u}) {
        params.select_bits = 2 + 2 * variant;
        params.maxp_p = std::size_t{8} << variant;  // 8, 16, 32: powers of two
        params.samplebyte_period = 4u << variant;
        params.samplebyte_skip = variant * 8;
        const auto by_value = core::compute_anchors(tables, payload, params);
        const auto& via_ws =
            core::compute_anchors(tables, payload, params, ws);
        EXPECT_EQ(by_value, via_ws)
            << "mode " << static_cast<int>(mode) << " variant " << variant
            << " payload " << payload.size();
      }
    }
  }
}

// ------------------------------------------------------ codec identity --

// Two independent encoder instances fed the same stream must emit
// bit-identical packets (scratch-buffer reuse cannot leak state between
// packets or instances), and a fresh decoder must reconstruct the
// original bytes exactly.
TEST(CodecEquiv, EncodingBitIdenticalAcrossInstances) {
  Rng rng(testutil::test_seed(107));
  // A redundant stream: random chunks, many repeated, so real regions and
  // multi-region packets are produced.
  Bytes object;
  std::vector<Bytes> chunks;
  for (int i = 0; i < 8; ++i) {
    chunks.push_back(random_bytes(rng, 400 + 80 * static_cast<std::size_t>(i)));
  }
  for (int i = 0; i < 120; ++i) {
    const Bytes& c = chunks[rng.zipf(chunks.size(), 1.0)];
    object.insert(object.end(), c.begin(), c.end());
  }

  auto enc_a = test_encoder(core::PolicyKind::kNaive);
  auto enc_b = test_encoder(core::PolicyKind::kNaive);
  core::Decoder dec{core::DreParams{}};
  std::size_t encoded_packets = 0;
  for (const auto& pkt : segment_stream(object)) {
    const Bytes original = pkt->payload;
    auto copy_a = packet::make_packet(pkt->ip.src, pkt->ip.dst,
                                      pkt->proto(), Bytes(original));
    auto copy_b = packet::make_packet(pkt->ip.src, pkt->ip.dst,
                                      pkt->proto(), Bytes(original));
    const auto info_a = enc_a.process(*copy_a);
    const auto info_b = enc_b.process(*copy_b);
    ASSERT_EQ(info_a.encoded, info_b.encoded);
    ASSERT_EQ(copy_a->payload, copy_b->payload);
    encoded_packets += info_a.encoded ? 1 : 0;
    const auto dinfo = dec.process(*copy_a);
    ASSERT_FALSE(core::is_drop(dinfo.status));
    ASSERT_EQ(copy_a->payload, original);
  }
  EXPECT_GT(encoded_packets, 0u);  // the stream must exercise encoding
  enc_a.audit();
  dec.audit();
}

// ------------------------------------------------------ eviction purge --

/// Counts fingerprint entries whose packet is gone, independent of the
/// build's BC_AUDIT setting (the audit() form is a no-op in plain
/// Release).
std::size_t stale_entries(const cache::CacheTier& cache) {
  std::size_t stale = 0;
  cache.table().for_each(
      [&](rabin::Fingerprint, const cache::FpEntry& entry) {
        if (cache.store().peek(entry.packet_id) == nullptr) ++stale;
      });
  return stale;
}

TEST(EvictionPurge, NoStaleEntriesUnderChurn) {
  const rabin::RabinTables tables(16);
  cache::CacheTier cache(
      cache::CacheConfig{.l1_bytes = 8 * 1024});  // constant eviction
  Rng rng(testutil::test_seed(108));
  for (int i = 0; i < 400; ++i) {
    const Bytes payload = random_bytes(rng, rng.uniform(64, 1460));
    const auto anchors = rabin::selected_anchors(tables, payload, 4);
    cache::PacketMeta meta;
    meta.stream_index = static_cast<std::uint64_t>(i);
    cache.update(payload, anchors, meta);
    ASSERT_EQ(stale_entries(cache), 0u) << "after update " << i;
  }
  EXPECT_GT(cache.store().evictions(), 0u);
  EXPECT_GT(cache.stats().fingerprints_purged, 0u);
  EXPECT_EQ(cache.stats().stale_hits, 0u);
  cache.audit();  // BC_AUDIT asserts stale == 0 in audit-enabled builds
}

TEST(EvictionPurge, BoundedEncoderDecoderStayInSync) {
  core::DreParams params;
  cache::CacheConfig cc;
  cc.l1_bytes = 64 * 1024;  // far smaller than the stream
  auto enc = test_encoder(core::PolicyKind::kNaive, params, cc);
  core::Decoder dec{params, cc};
  Rng rng(testutil::test_seed(109));
  Bytes object;
  const Bytes chunk = random_bytes(rng, 4000);
  for (int i = 0; i < 80; ++i) {
    const Bytes noise = random_bytes(rng, rng.uniform(100, 3000));
    object.insert(object.end(), noise.begin(), noise.end());
    object.insert(object.end(), chunk.begin(), chunk.end());
  }
  for (const auto& pkt : segment_stream(object)) {
    const Bytes original = pkt->payload;
    enc.process(*pkt);
    const auto dinfo = dec.process(*pkt);
    ASSERT_FALSE(core::is_drop(dinfo.status));
    ASSERT_EQ(pkt->payload, original);
  }
  EXPECT_GT(enc.cache().store().evictions(), 0u);
  EXPECT_EQ(stale_entries(enc.cache()), 0u);
  EXPECT_EQ(stale_entries(dec.cache()), 0u);
  enc.audit();
  dec.audit();
}

}  // namespace
}  // namespace bytecache
