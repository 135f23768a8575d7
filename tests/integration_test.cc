// Full-system integration tests reproducing the paper's core phenomena:
//   - Section IV: the naive encoder stalls TCP after a single loss;
//   - Section V: all three robust encoders survive loss;
//   - Section VI/VII: byte savings persist under loss, perceived loss
//     ordering (TcpSeq > CacheFlush), delays grow with loss.
#include <gtest/gtest.h>

#include "harness/experiment.h"
#include "workload/generators.h"

namespace bytecache::harness {
namespace {

using util::Bytes;
using util::Rng;

ExperimentConfig base_config(core::PolicyKind policy, double loss,
                             std::uint64_t seed = 1) {
  ExperimentConfig cfg;
  cfg.policy = policy;
  cfg.loss_rate = loss;
  cfg.seed = seed;
  cfg.trials = 1;
  return cfg;
}

const Bytes& file1() {
  static const Bytes f = [] {
    Rng rng(101);
    return workload::make_file1(rng, 587'567);
  }();
  return f;
}

TEST(Integration, NaiveStallsAfterSingleLoss) {
  // Paper Fig. 6: with 1% loss, 49/50 naive transfers stall.  With any
  // loss at all, the first lost data packet wedges the connection.
  int stalls = 0;
  const int runs = 10;
  for (int i = 0; i < runs; ++i) {
    auto r = run_trial(base_config(core::PolicyKind::kNaive, 0.01),
                       file1(), 100 + i);
    if (r.stalled) ++stalls;
    EXPECT_TRUE(r.verified);  // what was delivered must still be correct
  }
  EXPECT_GE(stalls, runs - 2);  // occasionally a run survives by luck
}

TEST(Integration, NaiveCompletesWithoutLoss) {
  auto r = run_trial(base_config(core::PolicyKind::kNaive, 0.0), file1(), 1);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verified);
}

TEST(Integration, NaivePartialRetrievalMatchesLossReciprocal) {
  // Paper Section IV-C: at 1% loss the client retrieves on the order of
  // 1/p packets (~146 KB) before the stall.
  Summary retrieved;
  for (int i = 0; i < 12; ++i) {
    auto r = run_trial(base_config(core::PolicyKind::kNaive, 0.01),
                       file1(), 200 + i);
    retrieved.add(r.percent_retrieved);
  }
  EXPECT_GT(retrieved.mean(), 5.0);
  EXPECT_LT(retrieved.mean(), 70.0);
}

TEST(Integration, RobustPoliciesSurviveModerateLoss) {
  for (auto kind : {core::PolicyKind::kCacheFlush, core::PolicyKind::kTcpSeq,
                    core::PolicyKind::kKDistance}) {
    for (double loss : {0.01, 0.05}) {
      auto r = run_trial(base_config(kind, loss), file1(), 33);
      EXPECT_TRUE(r.completed)
          << core::to_string(kind) << " at loss " << loss;
      EXPECT_TRUE(r.verified) << core::to_string(kind);
    }
  }
}

TEST(Integration, RobustPoliciesSurviveHeavyLoss) {
  Rng rng(102);
  const Bytes small = workload::make_file1(rng, 100'000);
  for (auto kind : {core::PolicyKind::kCacheFlush, core::PolicyKind::kTcpSeq,
                    core::PolicyKind::kKDistance}) {
    auto cfg = base_config(kind, 0.10);
    auto r = run_trial(cfg, small, 44);
    EXPECT_TRUE(r.completed) << core::to_string(kind);
    EXPECT_TRUE(r.verified) << core::to_string(kind);
  }
}

TEST(Integration, ByteSavingsAtZeroLoss) {
  // Paper Section VI: "In the absence of packet loss, data redundancy
  // elimination can reduce the number of sent bytes by 45%".
  auto point = run_ratio_point(base_config(core::PolicyKind::kCacheFlush, 0.0),
                               file1());
  EXPECT_LT(point.bytes_ratio, 0.75);
  EXPECT_GT(point.bytes_ratio, 0.35);
}

TEST(Integration, DelayReductionAtZeroLoss) {
  // Paper: "and the download time by 28%".
  auto point = run_ratio_point(base_config(core::PolicyKind::kCacheFlush, 0.0),
                               file1());
  EXPECT_LT(point.delay_ratio, 1.0);
  EXPECT_GT(point.delay_ratio, 0.4);
}

TEST(Integration, ByteSavingsPersistUnderTenPercentLoss) {
  // Paper: "the new encoding algorithms ... can offer byte savings even
  // with 10% packet loss".
  ExperimentConfig cfg = base_config(core::PolicyKind::kCacheFlush, 0.10);
  cfg.trials = 3;
  auto point = run_ratio_point(cfg, file1());
  EXPECT_LT(point.bytes_ratio, 1.0);
}

TEST(Integration, LossInflatesDelayRatio) {
  // Paper: 2% loss can double the download time vs no-DRE at equal loss.
  ExperimentConfig clean = base_config(core::PolicyKind::kTcpSeq, 0.0);
  clean.trials = 2;
  ExperimentConfig lossy = base_config(core::PolicyKind::kTcpSeq, 0.02);
  lossy.trials = 2;
  auto p0 = run_ratio_point(clean, file1());
  auto p2 = run_ratio_point(lossy, file1());
  EXPECT_LT(p0.delay_ratio, 1.0);
  EXPECT_GT(p2.delay_ratio, 1.0);
}

TEST(Integration, PerceivedLossExceedsActualWithDre) {
  ExperimentConfig cfg = base_config(core::PolicyKind::kTcpSeq, 0.05);
  cfg.trials = 3;
  auto agg = run_experiment(cfg, file1());
  EXPECT_GT(agg.perceived_loss.mean(), agg.actual_loss.mean() * 1.3);
}

TEST(Integration, TcpSeqPerceivedLossExceedsCacheFlush) {
  // Paper Fig. 13: the aggressive TcpSeq scheme suffers a markedly higher
  // perceived loss rate than CacheFlush.
  ExperimentConfig flush = base_config(core::PolicyKind::kCacheFlush, 0.05);
  flush.trials = 10;
  ExperimentConfig tcpseq = base_config(core::PolicyKind::kTcpSeq, 0.05);
  tcpseq.trials = 10;
  auto a = run_experiment(flush, file1());
  auto b = run_experiment(tcpseq, file1());
  EXPECT_GT(b.perceived_loss.mean(), a.perceived_loss.mean() * 0.95);
}

TEST(Integration, WithoutDrePerceivedEqualsActual) {
  ExperimentConfig cfg = base_config(core::PolicyKind::kNone, 0.05);
  cfg.trials = 2;
  auto agg = run_experiment(cfg, file1());
  EXPECT_NEAR(agg.perceived_loss.mean(), agg.actual_loss.mean(), 1e-9);
}

TEST(Integration, CorruptionHandledLikeLoss) {
  ExperimentConfig cfg = base_config(core::PolicyKind::kCacheFlush, 0.0);
  cfg.forward_link.corrupt_prob = 0.02;
  auto r = run_trial(cfg, file1(), 55);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verified);
  EXPECT_GT(r.corrupted, 0u);
  EXPECT_GT(r.perceived_loss, 0.0);
}

TEST(Integration, NaiveSuffersFromReorderingAlone) {
  // Paper Section IV: "a packet corruption, a packet loss or a re-ordered
  // packet – all events which occur in the Internet – can result in cache
  // desynchronization ... and ultimately circular dependencies".  With
  // reordering as the ONLY impairment, the naive encoder must exhibit
  // undecodable packets, and usually wedges.
  int impaired = 0;
  for (int i = 0; i < 5; ++i) {
    ExperimentConfig cfg = base_config(core::PolicyKind::kNaive, 0.0);
    cfg.forward_link.reorder_prob = 0.05;
    cfg.forward_link.reorder_extra_delay = sim::ms(4);
    auto r = run_trial(cfg, file1(), 600 + i);
    EXPECT_TRUE(r.verified);
    if (r.stalled || r.decoder_drops > 0) ++impaired;
  }
  EXPECT_GE(impaired, 4);
}

TEST(Integration, NaiveSuffersFromCorruptionAlone) {
  int impaired = 0;
  for (int i = 0; i < 5; ++i) {
    ExperimentConfig cfg = base_config(core::PolicyKind::kNaive, 0.0);
    cfg.forward_link.corrupt_prob = 0.01;
    auto r = run_trial(cfg, file1(), 700 + i);
    EXPECT_TRUE(r.verified);  // never wrong bytes, even when corrupted
    if (r.stalled || r.decoder_drops > 0) ++impaired;
  }
  EXPECT_GE(impaired, 4);
}

TEST(Integration, RobustPoliciesShrugOffReorderingAndCorruption) {
  for (auto kind : {core::PolicyKind::kCacheFlush,
                    core::PolicyKind::kKDistance}) {
    ExperimentConfig cfg = base_config(kind, 0.0);
    cfg.forward_link.reorder_prob = 0.03;
    cfg.forward_link.corrupt_prob = 0.01;
    auto r = run_trial(cfg, file1(), 800);
    EXPECT_TRUE(r.completed) << core::to_string(kind);
    EXPECT_TRUE(r.verified) << core::to_string(kind);
  }
}

TEST(Integration, ReorderingSurvivedByRobustPolicies) {
  ExperimentConfig cfg = base_config(core::PolicyKind::kCacheFlush, 0.0);
  cfg.forward_link.reorder_prob = 0.05;
  cfg.forward_link.reorder_extra_delay = sim::ms(4);
  auto r = run_trial(cfg, file1(), 66);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verified);
}

TEST(Integration, BurstyLossSurvived) {
  ExperimentConfig cfg = base_config(core::PolicyKind::kKDistance, 0.05);
  cfg.bursty_loss = true;
  Rng rng(103);
  const Bytes small = workload::make_file1(rng, 150'000);
  auto r = run_trial(cfg, small, 77);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verified);
}

TEST(Integration, DeterministicTrials) {
  auto a = run_trial(base_config(core::PolicyKind::kCacheFlush, 0.05),
                     file1(), 999);
  auto b = run_trial(base_config(core::PolicyKind::kCacheFlush, 0.05),
                     file1(), 999);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.wire_bytes_forward, b.wire_bytes_forward);
  EXPECT_EQ(a.tcp_retransmissions, b.tcp_retransmissions);
}

}  // namespace
}  // namespace bytecache::harness
