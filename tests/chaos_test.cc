// Chaos suite: every impairment at once (random loss, bursty loss,
// corruption, reordering), swept across policies, selection modes, and
// seeds.  The system-wide invariants under any combination:
//   1. delivered application bytes are always a correct prefix/copy,
//   2. loss-robust policies always complete,
//   3. the run is deterministic given the seed.
#include <gtest/gtest.h>

#include <tuple>

#include "harness/experiment.h"
#include "workload/generators.h"

namespace bytecache {
namespace {

using util::Bytes;
using util::Rng;

harness::ExperimentConfig chaos_config(core::PolicyKind policy,
                                       core::SelectMode mode,
                                       std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.policy = policy;
  cfg.dre.select_mode = mode;
  cfg.loss_rate = 0.04;
  cfg.bursty_loss = (seed % 2) == 0;
  cfg.forward_link.corrupt_prob = 0.01;
  cfg.forward_link.reorder_prob = 0.02;
  cfg.forward_link.reorder_extra_delay = sim::ms(3);
  cfg.seed = seed;
  return cfg;
}

const Bytes& chaos_file() {
  static const Bytes f = [] {
    Rng rng(0xC0A5);
    return workload::make_file1(rng, 180'000);
  }();
  return f;
}

using ChaosParams =
    std::tuple<core::PolicyKind, core::SelectMode, std::uint64_t>;

class ChaosSweep : public ::testing::TestWithParam<ChaosParams> {};

TEST_P(ChaosSweep, CompletesVerifiedUnderAllImpairments) {
  const auto [policy, mode, seed] = GetParam();
  auto r = harness::run_trial(chaos_config(policy, mode, seed), chaos_file(),
                              seed);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verified);  // the invariant that must never break
  EXPECT_GT(r.perceived_loss, 0.0);
}

std::string select_mode_name(core::SelectMode m) {
  switch (m) {
    case core::SelectMode::kValueSampling: return "modp";
    case core::SelectMode::kMaxp: return "maxp";
    case core::SelectMode::kSampleByte: return "samplebyte";
  }
  return "?";
}

INSTANTIATE_TEST_SUITE_P(
    Combos, ChaosSweep,
    ::testing::Combine(
        ::testing::Values(core::PolicyKind::kCacheFlush,
                          core::PolicyKind::kTcpSeq,
                          core::PolicyKind::kKDistance),
        ::testing::Values(core::SelectMode::kValueSampling,
                          core::SelectMode::kMaxp,
                          core::SelectMode::kSampleByte),
        ::testing::Values(1ull, 2ull)),
    [](const ::testing::TestParamInfo<ChaosParams>& info) {
      return std::string(core::to_string(std::get<0>(info.param))) + "_" +
             select_mode_name(std::get<1>(info.param)) + "_seed" +
             std::to_string(std::get<2>(info.param));
    });

TEST(Chaos, NaiveUnderChaosNeverDeliversWrongBytes) {
  // Naive may (and usually does) stall under chaos; what it may never do
  // is corrupt the delivered prefix.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    auto r = harness::run_trial(
        chaos_config(core::PolicyKind::kNaive,
                     core::SelectMode::kValueSampling, seed),
        chaos_file(), seed);
    EXPECT_TRUE(r.verified) << seed;
  }
}

TEST(Chaos, FeatureStackUnderChaos) {
  // Everything on at once: NACK feedback + ACK gating + delayed ACKs +
  // Tahoe + MAXP, under all impairments.
  auto cfg = chaos_config(core::PolicyKind::kCacheFlush,
                          core::SelectMode::kMaxp, 3);
  cfg.dre.nack_feedback = true;
  cfg.dre.ack_gated = true;
  cfg.tcp.delayed_ack = true;
  cfg.tcp.algo = tcp::CongestionAlgo::kTahoe;
  auto r = harness::run_trial(cfg, chaos_file(), 3);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verified);
  // ACK gating guarantees no loss-induced undecodable packets; the only
  // admissible decoder drops are corrupted-in-flight packets the CRC
  // rejects (inherent to corruption, not a cache desync).
  EXPECT_LE(r.decoder_drops, r.corrupted);
}

TEST(Chaos, DeterministicUnderChaos) {
  const auto cfg = chaos_config(core::PolicyKind::kTcpSeq,
                                core::SelectMode::kValueSampling, 7);
  auto a = harness::run_trial(cfg, chaos_file(), 7);
  auto b = harness::run_trial(cfg, chaos_file(), 7);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.wire_bytes_forward, b.wire_bytes_forward);
  EXPECT_EQ(a.decoder_drops, b.decoder_drops);
  EXPECT_EQ(a.tcp_retransmissions, b.tcp_retransmissions);
  EXPECT_EQ(a.perceived_loss, b.perceived_loss);
}

TEST(Chaos, TinyCachePlusChaos) {
  // Eviction churn on top of every impairment: completion and integrity
  // must still hold (references to evicted packets become clean drops).
  auto cfg = chaos_config(core::PolicyKind::kCacheFlush,
                          core::SelectMode::kValueSampling, 9);
  cfg.cache.l1_bytes = 20 * 1480;  // ~20 packets
  auto r = harness::run_trial(cfg, chaos_file(), 9);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verified);
}

}  // namespace
}  // namespace bytecache
