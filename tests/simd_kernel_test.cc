// Equivalence tests for the runtime-dispatched kernels (util/simd.h):
// the scan tiers (rabin/scan_kernel.h), the CRC-32 fold (util/crc32.h),
// the GF(256) row kernels (fec/gf256.h) and the fingerprint index's
// bucket compare (cache/fingerprint_table.h).  Every SIMD tier must be
// bit-identical to its scalar reference — same fingerprints, anchors,
// checksums, repair symbols and wire bytes — on every input, or the
// cache contents silently fork between peers.
//
// The size sweeps deliberately hug the seams: payloads at and around
// multiples of the widest vector step (the AVX2 membership path eats 32
// bytes per iteration and writes 64-bit mask words) and around the w-1
// positions at the end where no full window fits, because that is where
// a lane-split or tail loop goes wrong first.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include "cache/fingerprint_table.h"
#include "core/anchors.h"
#include "core/decoder.h"
#include "core/encoder.h"
#include "core/policies.h"
#include "core/wire.h"
#include "fec/decoder.h"
#include "fec/gf256.h"
#include "rabin/scan_kernel.h"
#include "rabin/window.h"
#include "tests/testutil.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/simd.h"

namespace bytecache {
namespace {

using testutil::random_bytes;
using testutil::segment_stream;
using testutil::test_encoder;
using util::Bytes;
using util::Rng;

std::vector<rabin::ScanKernelKind> available_kernels() {
  std::vector<rabin::ScanKernelKind> out;
  for (const auto kind :
       {rabin::ScanKernelKind::kScalar, rabin::ScanKernelKind::kSse2,
        rabin::ScanKernelKind::kAvx2}) {
    if (rabin::scan_kernel_available(kind)) out.push_back(kind);
  }
  return out;
}

/// Sizes that straddle the interesting boundaries: multiples of the
/// 32/64-byte vector strides (+/- 2) and the window edge, plus a few
/// larger odd sizes so every lane of the block split gets a tail.
std::vector<std::size_t> seam_sizes(std::size_t w) {
  std::vector<std::size_t> sizes = {w, w + 1, w + 2, 2 * w - 1, 2 * w + 1};
  for (const std::size_t base : {std::size_t{64}, std::size_t{128},
                                 std::size_t{256}, std::size_t{1024},
                                 std::size_t{1460}, std::size_t{4096}}) {
    for (std::size_t d = 0; d <= 4; ++d) sizes.push_back(base - 2 + d);
  }
  return sizes;
}

/// Restores the scan-kernel environment and re-runs detection on scope
/// exit, so an override cannot leak into later tests in this binary.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (saved_.empty()) {
      ::unsetenv(name_);
    } else {
      ::setenv(name_, saved_.c_str(), 1);
    }
    rabin::refresh_scan_kernel();
  }

 private:
  const char* name_;
  std::string saved_;
};

/// Runs `body` once with SIMD allowed (BYTECACHE_DISABLE_SIMD=0: the best
/// tier CPUID offers) and once under the kill switch, whatever the
/// ambient environment says.
template <typename Fn>
void under_each_simd_mode(Fn&& body) {
  for (const char* disable : {"0", "1"}) {
    ScopedEnv env("BYTECACHE_DISABLE_SIMD", disable);
    rabin::refresh_scan_kernel();
    SCOPED_TRACE(std::string("crc32=") + util::crc32_kernel() +
                 " gf=" + fec::gf_kernel());
    body();
  }
}

// ------------------------------------------------------- kernel fills --

TEST(ScanKernelEquiv, FillMatchesScalarAtSeamSizes) {
  for (const std::size_t w : {std::size_t{16}, std::size_t{32},
                              std::size_t{64}}) {
    const rabin::RabinTables tables(w);
    const rabin::ScanKernel& scalar =
        rabin::scan_kernel(rabin::ScanKernelKind::kScalar);
    Rng rng(testutil::test_seed(201));
    for (const std::size_t n : seam_sizes(w)) {
      if (n < w) continue;
      const Bytes payload = random_bytes(rng, n);
      std::vector<rabin::Fingerprint> expected(n - w + 1);
      scalar.fill_fingerprints(tables, payload.data(), n, expected.data());
      for (const auto kind : available_kernels()) {
        const rabin::ScanKernel& kernel = rabin::scan_kernel(kind);
        // Poisoned output: a position the kernel forgets to write shows
        // up as the sentinel, not as luckily-matching stale data.
        std::vector<rabin::Fingerprint> got(n - w + 1, 0xDEADDEADDEADDEAD);
        kernel.fill_fingerprints(tables, payload.data(), n, got.data());
        ASSERT_EQ(got, expected) << kernel.name << " w=" << w << " n=" << n;
      }
    }
  }
}

TEST(ScanKernelEquiv, FillMatchesScalarOnRandomSizes) {
  const rabin::RabinTables tables(16);
  const rabin::ScanKernel& scalar =
      rabin::scan_kernel(rabin::ScanKernelKind::kScalar);
  Rng rng(testutil::test_seed(202));
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = rng.uniform(16, 3000);
    const Bytes payload = random_bytes(rng, n);
    std::vector<rabin::Fingerprint> expected(n - 16 + 1);
    scalar.fill_fingerprints(tables, payload.data(), n, expected.data());
    for (const auto kind : available_kernels()) {
      std::vector<rabin::Fingerprint> got(n - 16 + 1);
      rabin::scan_kernel(kind).fill_fingerprints(tables, payload.data(), n,
                                                 got.data());
      ASSERT_EQ(got, expected)
          << rabin::scan_kernel(kind).name << " n=" << n;
    }
  }
}

TEST(ScanKernelEquiv, MemberMaskMatchesNaiveBitLoop) {
  Rng rng(testutil::test_seed(203));
  for (int trial = 0; trial < 60; ++trial) {
    // Random membership sets, including the empty and full extremes.
    std::array<std::uint64_t, 4> set{};
    if (trial % 10 != 0) {
      for (auto& word : set) word = rng.next_u64();
    }
    if (trial % 10 == 5) set.fill(~std::uint64_t{0});
    const std::size_t n =
        trial < 8 ? static_cast<std::size_t>(trial) : rng.uniform(1, 2000);
    const Bytes payload = random_bytes(rng, n);
    const std::size_t words = (n + 63) / 64;
    std::vector<std::uint64_t> expected(words, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint8_t b = payload[i];
      if ((set[b >> 6] >> (b & 63u)) & 1u) {
        expected[i >> 6] |= std::uint64_t{1} << (i & 63u);
      }
    }
    for (const auto kind : available_kernels()) {
      // Pre-set garbage: bits past n must come back zero, not survive.
      std::vector<std::uint64_t> got(words, ~std::uint64_t{0});
      rabin::scan_kernel(kind).member_mask(set, payload.data(), n,
                                           got.data());
      ASSERT_EQ(got, expected)
          << rabin::scan_kernel(kind).name << " n=" << n;
    }
  }
}

// --------------------------------------------------- anchor selection --

TEST(ScanKernelEquiv, SelectionIdenticalUnderEveryKernel) {
  const rabin::RabinTables tables(16);
  Rng rng(testutil::test_seed(204));
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t n = trial < 4 ? static_cast<std::size_t>(trial * 8)
                                    : rng.uniform(1, 2000);
    const Bytes payload = random_bytes(rng, n);
    std::vector<rabin::Anchor> expected_vs;
    std::vector<rabin::Anchor> expected_maxp;
    std::vector<rabin::Anchor> expected_sb;
    {
      rabin::ScopedScanKernel pin(rabin::ScanKernelKind::kScalar);
      expected_vs = rabin::selected_anchors(tables, payload, 4);
      expected_maxp = rabin::selected_anchors_maxp(tables, payload, 31);
      expected_sb =
          rabin::selected_anchors_samplebyte(tables, payload, 16, 8);
    }
    for (const auto kind : available_kernels()) {
      rabin::ScopedScanKernel pin(kind);
      const char* name = rabin::scan_kernel().name;
      ASSERT_EQ(rabin::selected_anchors(tables, payload, 4), expected_vs)
          << name << " n=" << n;
      ASSERT_EQ(rabin::selected_anchors_maxp(tables, payload, 31),
                expected_maxp)
          << name << " n=" << n;
      ASSERT_EQ(rabin::selected_anchors_samplebyte(tables, payload, 16, 8),
                expected_sb)
          << name << " n=" << n;
    }
  }
}

// ------------------------------------------ selection, CRC-32, GF(256) --
// The KernelEquiv cases hold each dispatched kernel to an oracle that
// shares no code with it: rabin::selected() per position, the bitwise
// CRC-32 definition, and gf_mul per byte.

TEST(KernelEquiv, SelectMaskMatchesSelectedForEveryBitCount) {
  Rng rng(testutil::test_seed(211));
  for (unsigned bits = 0; bits <= 16; ++bits) {
    for (int trial = 0; trial < 24; ++trial) {
      // Every short length, then the 64-position word seams, then random.
      std::size_t n = rng.uniform(1, 1500);
      if (trial < 10) {
        n = static_cast<std::size_t>(trial);
      } else if (trial < 16) {
        n = 62 + static_cast<std::size_t>(trial % 6) * 32;
      }
      std::vector<rabin::Fingerprint> fps(n);
      for (auto& fp : fps) {
        // Clear a random number of low bits so every bit count selects.
        fp = rng.next_u64() & ~((std::uint64_t{1} << rng.uniform(0, 20)) - 1);
      }
      const std::size_t words = (n + 63) / 64;
      std::vector<std::uint64_t> expected(words, 0);
      for (std::size_t i = 0; i < n; ++i) {
        if (rabin::selected(fps[i], bits)) {
          expected[i >> 6] |= std::uint64_t{1} << (i & 63u);
        }
      }
      for (const auto kind : available_kernels()) {
        std::vector<std::uint64_t> got(words, ~std::uint64_t{0});
        rabin::scan_kernel(kind).select_mask(fps.data(), n, bits, got.data());
        ASSERT_EQ(got, expected) << rabin::scan_kernel(kind).name
                                 << " bits=" << bits << " n=" << n;
      }
    }
  }
}

TEST(KernelEquiv, AppendSelectedAnchorsMatchesScalarOnSubSpans) {
  const rabin::RabinTables tables(16);
  Rng rng(testutil::test_seed(212));
  // Low-entropy bytes (a 4-letter alphabet) next to random ones, so the
  // spans hold both anchor-dense and anchor-sparse stretches.
  Bytes payload = random_bytes(rng, 1460);
  for (std::size_t i = 0; i < 600; ++i) payload[i] = "ACGT"[payload[i] & 3];
  const std::size_t positions = payload.size() - tables.window() + 1;
  for (unsigned bits = 0; bits <= 16; ++bits) {
    for (int trial = 0; trial < 16; ++trial) {
      const std::size_t first = trial == 0 ? 0 : rng.uniform(1, positions - 1);
      // Spans shorter than a 4-wide step, at and around the 64-position
      // word, and random.
      std::size_t len = rng.uniform(0, positions);
      if (trial < 6) {
        len = static_cast<std::size_t>(trial);
      } else if (trial < 9) {
        len = 63 + static_cast<std::size_t>(trial - 6);
      }
      const std::size_t last = std::min(positions, first + len);
      const rabin::Anchor sentinel{7, 0x5EED};  // append, never clear
      std::vector<rabin::Anchor> expected{sentinel};
      rabin::ScanScratch scratch;
      {
        rabin::ScopedScanKernel pin(rabin::ScanKernelKind::kScalar);
        rabin::append_selected_anchors(tables, payload, first, last, bits,
                                       expected, scratch);
      }
      for (const auto kind : available_kernels()) {
        rabin::ScopedScanKernel pin(kind);
        std::vector<rabin::Anchor> got{sentinel};
        rabin::append_selected_anchors(tables, payload, first, last, bits,
                                       got, scratch);
        ASSERT_EQ(got, expected) << rabin::scan_kernel(kind).name
                                 << " bits=" << bits << " span=[" << first
                                 << "," << last << ")";
      }
    }
  }
}

/// CRC-32 straight from its definition, one bit per step.
std::uint32_t crc32_bitwise(util::BytesView data, std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (const std::uint8_t b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (c >> 1) ^ 0xEDB88320u : c >> 1;
  }
  return ~c;
}

TEST(KernelEquiv, Crc32MatchesOraclesAtEveryLength) {
  Rng rng(testutil::test_seed(213));
  const Bytes buf = random_bytes(rng, 4096 + 16);
  under_each_simd_mode([&] {
    for (std::size_t n = 0; n <= 4096; ++n) {
      const std::size_t start = n % 16;  // every misalignment
      const util::BytesView data(buf.data() + start, n);
      const auto seed =
          n % 3 == 0 ? 0u : static_cast<std::uint32_t>(rng.next_u64());
      const std::uint32_t expected = util::crc32_scalar(data, seed);
      ASSERT_EQ(util::crc32(data, seed), expected)
          << "n=" << n << " start=" << start;
      if (n <= 300 || n % 97 == 0) {
        ASSERT_EQ(expected, crc32_bitwise(data, seed)) << "n=" << n;
      }
    }
  });
}

TEST(KernelEquiv, Crc32KnownVectorsCrossTheFoldPath) {
  Bytes ramp(256);
  for (std::size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<std::uint8_t>(i);
  }
  Bytes ramps;
  for (int i = 0; i < 16; ++i) {
    ramps.insert(ramps.end(), ramp.begin(), ramp.end());
  }
  under_each_simd_mode([&] {
    EXPECT_EQ(util::crc32(util::to_bytes("123456789")), 0xCBF43926u);
    EXPECT_EQ(util::crc32(ramp), 0x29058C73u);
    EXPECT_EQ(util::crc32(ramps), 0xA2912082u);
  });
}

TEST(KernelEquiv, Crc32ContinuationComposes) {
  Rng rng(testutil::test_seed(214));
  under_each_simd_mode([&] {
    for (int trial = 0; trial < 300; ++trial) {
      const Bytes data = random_bytes(rng, rng.uniform(0, 3000));
      const std::size_t cut = rng.uniform(0, data.size());
      const util::BytesView whole(data);
      const auto seed = static_cast<std::uint32_t>(rng.next_u64());
      const std::uint32_t head = util::crc32(whole.subspan(0, cut), seed);
      ASSERT_EQ(util::crc32(whole.subspan(cut), head),
                util::crc32_scalar(whole, seed))
          << "n=" << data.size() << " cut=" << cut;
    }
  });
}

/// GF(256) row-kernel lengths: every length through two 32-byte steps,
/// then odd tails around the larger strides and the MSS.
std::vector<std::size_t> gf_lengths() {
  std::vector<std::size_t> out;
  for (std::size_t n = 0; n <= 67; ++n) out.push_back(n);
  for (const std::size_t n : {95, 96, 97, 127, 128, 129, 255, 257, 1459,
                              1460, 1461, 2047, 2048}) {
    out.push_back(n);
  }
  return out;
}

/// Checks gf_axpy and gf_scale of coefficient c over n bytes against
/// gf_mul per byte and against the scalar product-row references.  The
/// rows start one byte in for odd c, so the vector loads run misaligned.
void check_gf_row(const Bytes& src0, const Bytes& dst0, std::size_t n,
                  std::uint8_t c) {
  const std::size_t skew = c & 1u;
  Bytes expected(dst0.begin() + skew, dst0.begin() + skew + n);
  Bytes scaled(src0.begin() + skew, src0.begin() + skew + n);
  for (std::size_t i = 0; i < n; ++i) {
    expected[i] ^= fec::gf_mul(c, src0[skew + i]);
    scaled[i] = fec::gf_mul(c, src0[skew + i]);
  }
  Bytes dst = dst0;
  fec::gf_axpy(dst.data() + skew, src0.data() + skew, n, c);
  ASSERT_TRUE(std::equal(expected.begin(), expected.end(), dst.begin() + skew))
      << "gf_axpy c=" << int{c} << " n=" << n;
  // Bytes outside [skew, skew + n) stay untouched.
  ASSERT_TRUE(std::equal(dst.begin() + static_cast<std::ptrdiff_t>(skew + n),
                         dst.end(),
                         dst0.begin() + static_cast<std::ptrdiff_t>(skew + n)))
      << "gf_axpy wrote past n: c=" << int{c} << " n=" << n;
  Bytes ref = dst0;
  fec::gf_axpy_scalar(ref.data() + skew, src0.data() + skew, n, c);
  ASSERT_EQ(dst, ref) << "gf_axpy vs scalar c=" << int{c} << " n=" << n;

  Bytes buf = src0;
  fec::gf_scale(buf.data() + skew, n, c);
  // gf_scale by 1 is the identity, and the scalar reference skips it.
  if (c != 1) {
    ASSERT_TRUE(std::equal(scaled.begin(), scaled.end(), buf.begin() + skew))
        << "gf_scale c=" << int{c} << " n=" << n;
  }
  Bytes buf_ref = src0;
  fec::gf_scale_scalar(buf_ref.data() + skew, n, c);
  ASSERT_EQ(buf, buf_ref) << "gf_scale vs scalar c=" << int{c} << " n=" << n;
}

TEST(KernelEquiv, GfRowsMatchOracleForEveryCoefficient) {
  Rng rng(testutil::test_seed(215));
  const Bytes src = random_bytes(rng, 2048 + 2);
  const Bytes dst = random_bytes(rng, 2048 + 2);
  const std::vector<std::size_t> lengths = gf_lengths();
  under_each_simd_mode([&] {
    for (unsigned c = 0; c < 256; ++c) {
      for (const std::size_t n : lengths) {
        check_gf_row(src, dst, n, static_cast<std::uint8_t>(c));
        if (HasFatalFailure()) return;
      }
    }
  });
}

TEST(KernelEquiv, GfRowsMatchOracleAtEveryLength) {
  Rng rng(testutil::test_seed(216));
  const Bytes src = random_bytes(rng, 2048 + 2);
  const Bytes dst = random_bytes(rng, 2048 + 2);
  under_each_simd_mode([&] {
    for (std::size_t n = 0; n <= 2048; ++n) {
      const auto c = static_cast<std::uint8_t>(rng.uniform(0, 255));
      check_gf_row(src, dst, n, c);
      if (HasFatalFailure()) return;
    }
  });
}

// ------------------------------------------------- end-to-end wire bytes --

struct E2EConfig {
  const char* name;
  core::PolicyKind policy;
  core::SelectMode mode;
  std::size_t cache_bytes;
  bool epoch_resync;
  bool coded_repair;
};

// The six tracked data-plane configurations (mirrors bench_throughput's
// workload list) plus coded repair with one packet in 16 lost, which
// runs the GF(256) rows and the repair CRC on both sides: kernel choice
// must never change a single wire byte in any of them.
constexpr E2EConfig kConfigs[] = {
    {"naive_valuesampling", core::PolicyKind::kNaive,
     core::SelectMode::kValueSampling, 0, false, false},
    {"naive_maxp", core::PolicyKind::kNaive, core::SelectMode::kMaxp, 0,
     false, false},
    {"naive_samplebyte", core::PolicyKind::kNaive,
     core::SelectMode::kSampleByte, 0, false, false},
    {"tcpseq_valuesampling", core::PolicyKind::kTcpSeq,
     core::SelectMode::kValueSampling, 0, false, false},
    {"naive_bounded256k", core::PolicyKind::kNaive,
     core::SelectMode::kValueSampling, 256 * 1024, false, false},
    {"kdistance_resync_valuesampling", core::PolicyKind::kKDistance,
     core::SelectMode::kValueSampling, 0, true, false},
    {"coded_repair", core::PolicyKind::kNaive,
     core::SelectMode::kValueSampling, 256 * 1024, true, true},
};

/// Encodes `stream` under the pinned kernel and returns every post-encode
/// payload and repair (the exact wire bytes), verifying decode restores
/// the original along the way.  Under coded repair every 16th packet is
/// lost before a fec::RepairDecoder, which must rebuild it.
std::vector<Bytes> wire_bytes_under(rabin::ScanKernelKind kind,
                                    const E2EConfig& cfg,
                                    const Bytes& object) {
  rabin::ScopedScanKernel pin(kind);
  core::DreParams params;
  params.select_mode = cfg.mode;
  params.epoch_resync = cfg.epoch_resync;
  params.coded_repair = cfg.coded_repair;
  cache::CacheConfig cc;
  cc.l1_bytes = cfg.cache_bytes;
  core::Encoder enc = test_encoder(cfg.policy, params, cc);
  core::Decoder dec(params, cc);
  fec::RepairDecoder repair(params.repair);
  std::vector<fec::RepairDecoder::Released> released;
  std::vector<Bytes> originals;
  std::size_t delivered = 0;
  const auto deliver = [&](packet::Packet& pkt) {
    const auto dinfo = dec.process(pkt);
    EXPECT_FALSE(core::is_drop(dinfo.status)) << cfg.name;
    EXPECT_EQ(pkt.payload, originals[delivered]) << cfg.name;
    ++delivered;
  };
  const auto deliver_released = [&] {
    for (const auto& r : released) deliver(*r.pkt);
    released.clear();
  };
  std::vector<Bytes> wire;
  std::size_t index = 0;
  for (const auto& pkt : segment_stream(object)) {
    originals.push_back(pkt->payload);
    const core::EncodeInfo info = enc.process(*pkt);
    wire.push_back(pkt->payload);
    wire.insert(wire.end(), info.repairs.begin(), info.repairs.end());
    if (!cfg.coded_repair) {
      deliver(*pkt);
      continue;
    }
    std::uint16_t gen_id = 0;
    std::uint8_t gen_seq = 0;
    EXPECT_TRUE(core::peek_gen_tag(pkt->payload, gen_id, gen_seq));
    if (index++ % 16 != 5) {
      repair.on_data(gen_id, gen_seq, packet::clone_packet(*pkt), released);
    }
    for (const Bytes& rep : info.repairs) repair.on_repair(rep, released);
    deliver_released();
  }
  if (cfg.coded_repair) {
    for (const Bytes& rep : enc.close_repair_generation()) {
      wire.push_back(rep);
      repair.on_repair(rep, released);
    }
    repair.drain(released);
    deliver_released();
    EXPECT_GT(repair.stats().reconstructed, 0u) << cfg.name;
    repair.audit();
  }
  EXPECT_EQ(delivered, originals.size()) << cfg.name;
  enc.audit();
  dec.audit();
  return wire;
}

TEST(ScanKernelEquiv, WireBytesIdenticalAcrossKernelsForEveryConfig) {
  Rng rng(testutil::test_seed(205));
  // Redundant stream (repeated chunks + noise) so real regions, cache
  // churn, and — under the bounded config — evictions all happen.
  Bytes object;
  std::vector<Bytes> chunks;
  for (int i = 0; i < 6; ++i) {
    chunks.push_back(random_bytes(rng, 500 + 100 * static_cast<std::size_t>(i)));
  }
  for (int i = 0; i < 100; ++i) {
    const Bytes& c = chunks[rng.zipf(chunks.size(), 1.0)];
    object.insert(object.end(), c.begin(), c.end());
    if (i % 7 == 0) {
      const Bytes noise = random_bytes(rng, rng.uniform(50, 400));
      object.insert(object.end(), noise.begin(), noise.end());
    }
  }

  for (const E2EConfig& cfg : kConfigs) {
    // The reference runs every kernel scalar: scan, CRC-32 and GF(256).
    std::vector<Bytes> expected;
    {
      ScopedEnv env("BYTECACHE_DISABLE_SIMD", "1");
      rabin::refresh_scan_kernel();
      expected = wire_bytes_under(rabin::ScanKernelKind::kScalar, cfg, object);
    }
    under_each_simd_mode([&] {
      for (const auto kind : available_kernels()) {
        const std::vector<Bytes> got = wire_bytes_under(kind, cfg, object);
        ASSERT_EQ(got.size(), expected.size()) << cfg.name;
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], expected[i])
              << cfg.name << " wire payload " << i << " under kernel "
              << rabin::scan_kernel(kind).name;
        }
      }
    });
  }
}

// ------------------------------------------------ fingerprint index --

/// Everything a FingerprintTable run can show: each probe's result,
/// each purge's count and the final for_each sequence.
struct IndexTrace {
  std::vector<std::tuple<bool, std::uint64_t, std::uint16_t>> probes;
  std::vector<std::size_t> purged;
  std::vector<std::tuple<rabin::Fingerprint, std::uint64_t, std::uint16_t>>
      order;
  std::size_t owners = 0;
};

/// One seeded put_anchors/probe_batch/purge sequence under the current
/// dispatch.  Fingerprints come from a small pool, so packets overwrite
/// each other's entries and purges find some taken over; the table starts
/// small, so it also grows mid-run.
IndexTrace run_index_sequence() {
  cache::FingerprintTable table;
  Rng rng(testutil::test_seed(131));
  std::vector<rabin::Fingerprint> pool(6000);
  for (auto& fp : pool) fp = rng.next_u64() << 4;
  std::vector<std::vector<rabin::Anchor>> live;
  std::vector<cache::ProbeResult> results;
  std::vector<rabin::Fingerprint> fps;
  IndexTrace trace;
  constexpr std::size_t kLive = 64;
  for (std::uint64_t id = 1; id <= 600; ++id) {
    std::vector<rabin::Anchor> anchors(rng.uniform(0, 120));
    for (std::size_t i = 0; i < anchors.size(); ++i) {
      anchors[i] = rabin::Anchor{static_cast<std::uint16_t>(i * 12),
                                 pool[rng.uniform(0, pool.size() - 1)]};
    }
    results.assign(anchors.size(), cache::ProbeResult{});
    table.probe_batch(anchors, results);
    for (const cache::ProbeResult& r : results) {
      trace.probes.emplace_back(r.found, r.found ? r.entry.packet_id : 0,
                                r.found ? r.entry.offset : 0);
    }
    table.put_anchors(id, anchors);
    live.push_back(std::move(anchors));
    if (live.size() > kLive) {
      // Evict the oldest, as CacheTier's eviction hook does.
      const std::uint64_t oldest = id - kLive;
      fps.clear();
      for (const rabin::Anchor& a : live.front()) fps.push_back(a.fp);
      trace.purged.push_back(table.purge(oldest, fps));
      live.erase(live.begin());
    }
  }
  table.for_each([&](rabin::Fingerprint fp, const cache::FpEntry& e) {
    trace.order.emplace_back(fp, e.packet_id, e.offset);
  });
  trace.owners = table.owner_count();
  table.audit_owner_counts();
  return trace;
}

TEST(FingerprintTableEquiv, Avx2AndScalarCompareAgree) {
  IndexTrace dispatched;
  IndexTrace scalar;
  {
    ScopedEnv env("BYTECACHE_DISABLE_SIMD", "0");
    util::refresh_simd();
    SCOPED_TRACE(util::simd().avx2 ? "avx2 compare" : "no avx2 on this CPU");
    dispatched = run_index_sequence();
  }
  {
    ScopedEnv env("BYTECACHE_DISABLE_SIMD", "1");
    util::refresh_simd();
    ASSERT_FALSE(util::simd().avx2);
    scalar = run_index_sequence();
  }
  EXPECT_GT(scalar.order.size(), 1000u);
  EXPECT_EQ(dispatched.probes, scalar.probes);
  EXPECT_EQ(dispatched.purged, scalar.purged);
  EXPECT_EQ(dispatched.order, scalar.order);
  EXPECT_EQ(dispatched.owners, scalar.owners);
}

// ------------------------------------------------ environment overrides --

/// What detection yields under the process's *ambient* environment —
/// the CI scalar-fallback leg runs this whole binary with
/// BYTECACHE_DISABLE_SIMD=1 exported, so "restored" does not always
/// mean "best tier".
rabin::ScanKernelKind ambient_kernel() {
  rabin::refresh_scan_kernel();
  return rabin::scan_kernel().kind;
}

/// What detection falls back to when BYTECACHE_SCAN_KERNEL is absent or
/// unrecognised: the best supported tier, unless the ambient kill switch
/// pins scalar.
rabin::ScanKernelKind detect_fallback() {
  if (util::env_flag_set("BYTECACHE_DISABLE_SIMD")) {
    return rabin::ScanKernelKind::kScalar;
  }
  return available_kernels().back();
}

TEST(ScanKernelEnv, DisableSimdForcesScalar) {
  const auto ambient = ambient_kernel();
  const std::string ambient_crc = util::crc32_kernel();
  const std::string ambient_gf = fec::gf_kernel();
  {
    ScopedEnv env("BYTECACHE_DISABLE_SIMD", "1");
    rabin::refresh_scan_kernel();
    EXPECT_FALSE(util::simd().enabled);
    EXPECT_EQ(rabin::scan_kernel().kind, rabin::ScanKernelKind::kScalar);
    EXPECT_STREQ(rabin::scan_kernel().name, "scalar");
    EXPECT_STREQ(util::crc32_kernel(), "slice8");
    EXPECT_STREQ(fec::gf_kernel(), "scalar");
  }
  {
    // "0" is off: every kernel takes the best tier the CPU has.
    ScopedEnv env("BYTECACHE_DISABLE_SIMD", "0");
    rabin::refresh_scan_kernel();
    const util::SimdFeatures cpu = util::cpu_simd();
    EXPECT_EQ(rabin::scan_kernel().kind, available_kernels().back());
    EXPECT_STREQ(util::crc32_kernel(), cpu.pclmul ? "pclmul" : "slice8");
    EXPECT_STREQ(fec::gf_kernel(), cpu.avx2 ? "avx2" : "scalar");
  }
  // Detection re-ran on scope exit: back to the ambient dispatch.
  EXPECT_EQ(rabin::scan_kernel().kind, ambient);
  EXPECT_EQ(util::crc32_kernel(), ambient_crc);
  EXPECT_EQ(fec::gf_kernel(), ambient_gf);
}

TEST(ScanKernelEnv, KernelPinSelectsRequestedTier) {
  const auto ambient = ambient_kernel();
  {
    ScopedEnv env("BYTECACHE_SCAN_KERNEL", "scalar");
    rabin::refresh_scan_kernel();
    EXPECT_EQ(rabin::scan_kernel().kind, rabin::ScanKernelKind::kScalar);
  }
  // An unknown name is ignored (dispatch falls back to detection).
  {
    ScopedEnv env("BYTECACHE_SCAN_KERNEL", "avx9000");
    rabin::refresh_scan_kernel();
    EXPECT_EQ(rabin::scan_kernel().kind, detect_fallback());
  }
  // The kill switch wins over an explicit pin.
  {
    ScopedEnv outer("BYTECACHE_SCAN_KERNEL", "avx2");
    ScopedEnv env("BYTECACHE_DISABLE_SIMD", "1");
    rabin::refresh_scan_kernel();
    EXPECT_EQ(rabin::scan_kernel().kind, rabin::ScanKernelKind::kScalar);
  }
  EXPECT_EQ(rabin::scan_kernel().kind, ambient);
}

TEST(ScanKernelEnv, KernelPinClampsAndLeavesOtherKernelsAlone) {
  const util::SimdFeatures cpu = util::cpu_simd();
  {
    // A pin above what the CPU runs clamps to the best tier below it.
    ScopedEnv off("BYTECACHE_DISABLE_SIMD", "0");
    ScopedEnv pin("BYTECACHE_SCAN_KERNEL", "avx2");
    rabin::refresh_scan_kernel();
    EXPECT_EQ(rabin::scan_kernel().kind, available_kernels().back());
  }
  {
    // The pin is scan-only: CRC-32 and GF(256) keep their own tier.
    ScopedEnv off("BYTECACHE_DISABLE_SIMD", "0");
    ScopedEnv pin("BYTECACHE_SCAN_KERNEL", "scalar");
    rabin::refresh_scan_kernel();
    EXPECT_EQ(rabin::scan_kernel().kind, rabin::ScanKernelKind::kScalar);
    EXPECT_STREQ(util::crc32_kernel(), cpu.pclmul ? "pclmul" : "slice8");
    EXPECT_STREQ(fec::gf_kernel(), cpu.avx2 ? "avx2" : "scalar");
  }
}

}  // namespace
}  // namespace bytecache
