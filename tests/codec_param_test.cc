// Parameterized property tests of the DRE codec.
//
// The central invariant, swept across policies, window sizes, selection
// densities, payload sizes, and loss patterns: the decoder either
// reconstructs a payload BIT-EXACTLY or drops the packet — it never
// delivers wrong bytes.
#include <gtest/gtest.h>

#include <tuple>

#include "core/decoder.h"
#include "core/encoder.h"
#include "core/factory.h"
#include "tests/testutil.h"
#include "workload/generators.h"

namespace bytecache::core {
namespace {

using testutil::make_tcp_packet;
using testutil::random_bytes;
using testutil::segment_stream;
using util::Bytes;
using util::Rng;

// --------------------------------------------- policy x window x bits --

using CodecParams = std::tuple<PolicyKind, std::size_t, unsigned>;

class CodecSweep : public ::testing::TestWithParam<CodecParams> {
 protected:
  DreParams dre_params() const {
    DreParams p;
    p.window = std::get<1>(GetParam());
    p.select_bits = std::get<2>(GetParam());
    return p;
  }
  PolicyKind kind() const { return std::get<0>(GetParam()); }
};

TEST_P(CodecSweep, LosslessStreamRoundTripsBitExactly) {
  const DreParams params = dre_params();
  Encoder enc(params, make_policy(kind(), params));
  Decoder dec(params);
  Rng rng(std::get<1>(GetParam()) * 131 + std::get<2>(GetParam()));
  const Bytes object = workload::make_file1(rng, 120 * 1460);
  std::size_t encoded = 0;
  for (auto& pkt : segment_stream(object)) {
    const Bytes original = pkt->payload;
    if (enc.process(*pkt).encoded) ++encoded;
    const DecodeInfo info = dec.process(*pkt);
    ASSERT_FALSE(is_drop(info.status));
    ASSERT_EQ(pkt->payload, original);
  }
  if (kind() != PolicyKind::kNone) {
    EXPECT_GT(encoded, 0u);
  }
}

TEST_P(CodecSweep, EncoderNeverGrowsThePayload) {
  const DreParams params = dre_params();
  Encoder enc(params, make_policy(kind(), params));
  Rng rng(7);
  const Bytes object = workload::make_file2(rng, 80 * 1460);
  for (auto& pkt : segment_stream(object)) {
    const std::size_t before = pkt->payload.size();
    enc.process(*pkt);
    ASSERT_LE(pkt->payload.size(), before);
  }
}

TEST_P(CodecSweep, StatsAreConsistent) {
  const DreParams params = dre_params();
  Encoder enc(params, make_policy(kind(), params));
  Rng rng(8);
  const Bytes object = workload::make_file1(rng, 60 * 1460);
  for (auto& pkt : segment_stream(object)) enc.process(*pkt);
  const EncoderStats& s = enc.stats();
  EXPECT_LE(s.bytes_out, s.bytes_in);
  EXPECT_LE(s.encoded_packets, s.data_packets);
  EXPECT_LE(s.data_packets, s.packets);
  EXPECT_GE(s.regions, s.encoded_packets);  // >= 1 region per encoded pkt
}

INSTANTIATE_TEST_SUITE_P(
    PolicyWindowBits, CodecSweep,
    ::testing::Combine(
        ::testing::Values(PolicyKind::kNaive, PolicyKind::kCacheFlush,
                          PolicyKind::kTcpSeq, PolicyKind::kKDistance),
        ::testing::Values(8u, 16u, 32u),
        ::testing::Values(2u, 4u, 6u)),
    [](const ::testing::TestParamInfo<CodecParams>& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_w" +
             std::to_string(std::get<1>(info.param)) + "_b" +
             std::to_string(std::get<2>(info.param));
    });

// ----------------------------------------------------- payload sizes --

class PayloadSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PayloadSizeSweep, RoundTripAndBoundaries) {
  const std::size_t size = GetParam();
  DreParams params;
  Encoder enc(params, make_policy(PolicyKind::kNaive, params));
  Decoder dec(params);
  Rng rng(size);
  const Bytes data = random_bytes(rng, size);

  // Twice the same payload: the second may be encoded (if big enough).
  auto p1 = testutil::make_udp_packet(data);
  enc.process(*p1);
  ASSERT_FALSE(is_drop(dec.process(*p1).status));
  auto p2 = testutil::make_udp_packet(data);
  const Bytes original = p2->payload;
  enc.process(*p2);
  const DecodeInfo info = dec.process(*p2);
  ASSERT_FALSE(is_drop(info.status));
  EXPECT_EQ(p2->payload, original);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PayloadSizeSweep,
                         ::testing::Values(1u, 15u, 16u, 17u, 26u, 27u, 64u,
                                           256u, 1460u, 9000u, 65535u),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           return "bytes" + std::to_string(i.param);
                         });

TEST(PayloadSizeLimits, OversizedPayloadPassesThrough) {
  DreParams params;
  Encoder enc(params, make_policy(PolicyKind::kNaive, params));
  Rng rng(1);
  const Bytes big = random_bytes(rng, 70'000);  // > 16-bit offsets
  auto p1 = testutil::make_udp_packet(big);
  auto p2 = testutil::make_udp_packet(big);
  EXPECT_FALSE(enc.process(*p1).data_packet);
  EXPECT_FALSE(enc.process(*p2).encoded);
  EXPECT_EQ(p2->payload.size(), 70'000u);
}

// ------------------------------------------------------ loss patterns --

struct LossPattern {
  const char* name;
  int period;  // drop every period-th packet (0 = none)
};

class LossPatternSweep
    : public ::testing::TestWithParam<std::tuple<PolicyKind, int>> {};

TEST_P(LossPatternSweep, NeverDeliversWrongBytes) {
  const PolicyKind kind = std::get<0>(GetParam());
  const int period = std::get<1>(GetParam());
  DreParams params;
  Encoder enc(params, make_policy(kind, params));
  Decoder dec(params);
  Rng rng(period * 7 + 1);
  const Bytes object = workload::make_file1(rng, 150 * 1460);
  int idx = 0;
  std::size_t delivered = 0, dropped = 0;
  for (auto& pkt : segment_stream(object)) {
    const Bytes original = pkt->payload;
    enc.process(*pkt);
    ++idx;
    if (period > 0 && idx % period == 0) {
      continue;  // lost on the link
    }
    const DecodeInfo info = dec.process(*pkt);
    if (is_drop(info.status)) {
      ++dropped;
    } else {
      ++delivered;
      ASSERT_EQ(pkt->payload, original) << "wrong bytes delivered!";
    }
  }
  EXPECT_GT(delivered, 0u);
  if (period == 0) {
    EXPECT_EQ(dropped, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, LossPatternSweep,
    ::testing::Combine(::testing::Values(PolicyKind::kNaive,
                                         PolicyKind::kCacheFlush,
                                         PolicyKind::kTcpSeq,
                                         PolicyKind::kKDistance),
                       ::testing::Values(0, 3, 7, 20)),
    [](const ::testing::TestParamInfo<std::tuple<PolicyKind, int>>& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_drop" +
             std::to_string(std::get<1>(info.param));
    });

// ----------------------------------------------------- k-distance sweep --

class KDistanceSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KDistanceSweep, CascadeBoundedByK) {
  const std::size_t k = GetParam();
  DreParams params;
  params.k_distance = k;
  Encoder enc(params, make_policy(PolicyKind::kKDistance, params));
  Decoder dec(params);
  Rng rng(k);
  // Maximally coupled stream: every packet repeats the same content.
  const Bytes base = random_bytes(rng, 1460);
  int max_run = 0, run = 0;
  for (int i = 0; i < 60; ++i) {
    Bytes payload = base;
    payload[4] = static_cast<std::uint8_t>(i);
    auto pkt = make_tcp_packet(payload, 1000 + 1460 * i);
    enc.process(*pkt);
    if (i == 13 || i == 29) {  // two losses
      run = 0;
      continue;
    }
    if (is_drop(dec.process(*pkt).status)) {
      run = std::max(run + 1, 1);
      max_run = std::max(max_run, run);
    } else {
      run = 0;
    }
  }
  EXPECT_LE(max_run, static_cast<int>(k));
}

TEST_P(KDistanceSweep, ReferenceRateMatchesK) {
  const std::size_t k = GetParam();
  DreParams params;
  params.k_distance = k;
  Encoder enc(params, make_policy(PolicyKind::kKDistance, params));
  Rng rng(k + 100);
  const Bytes object = workload::make_file1(rng, 100 * 1460);
  for (auto& pkt : segment_stream(object)) enc.process(*pkt);
  const EncoderStats& s = enc.stats();
  const double expected =
      k <= 1 ? static_cast<double>(s.data_packets)
             : static_cast<double>(s.data_packets) / static_cast<double>(k);
  EXPECT_NEAR(static_cast<double>(s.references), expected,
              expected * 0.2 + 2.0);
}

INSTANTIATE_TEST_SUITE_P(Ks, KDistanceSweep,
                         ::testing::Values(1u, 2u, 3u, 8u, 16u, 64u),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           // Appended, not `"k" + tmp`: GCC 12 -O3 flags
                           // that as -Wrestrict.
                           std::string name = "k";
                           name += std::to_string(i.param);
                           return name;
                         });

// -------------------------------------------------------- determinism --

TEST(CodecDeterminism, SameStreamSameOutput) {
  DreParams params;
  Rng rng(55);
  const Bytes object = workload::make_file2(rng, 80 * 1460);
  auto run_once = [&]() {
    Encoder enc(params, make_policy(PolicyKind::kTcpSeq, params));
    Bytes all;
    for (auto& pkt : segment_stream(object)) {
      enc.process(*pkt);
      util::append(all, pkt->payload);
    }
    return all;
  };
  EXPECT_EQ(run_once(), run_once());
}

// ------------------------------------------------- eviction under load --

TEST(CodecEviction, TinyCacheNeverCorruptsStream) {
  // With a cache far too small, entries are constantly evicted on both
  // sides; decode failures are acceptable, wrong bytes are not.
  DreParams params;
  cache::CacheConfig cc;
  cc.l1_bytes = 8 * 1480;  // ~8 packets
  Encoder enc(params, make_policy(PolicyKind::kNaive, params), cc);
  Decoder dec(params, cc);
  Rng rng(66);
  const Bytes object = workload::make_file1(rng, 200 * 1460);
  std::size_t drops = 0;
  for (auto& pkt : segment_stream(object)) {
    const Bytes original = pkt->payload;
    enc.process(*pkt);
    const DecodeInfo info = dec.process(*pkt);
    if (is_drop(info.status)) {
      ++drops;
    } else {
      ASSERT_EQ(pkt->payload, original);
    }
  }
  EXPECT_GT(enc.cache().store().evictions(), 0u);
}

}  // namespace
}  // namespace bytecache::core
