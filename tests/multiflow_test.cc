// Multiple TCP connections through one gateway pair: inter-flow
// redundancy elimination (paper intro) and cross-connection cache
// poisoning (paper Section IV-C: "not only one TCP connection, but all
// subsequent connections going through the encoder and decoder may get
// affected").
#include <gtest/gtest.h>

#include <memory>

#include "app/file_transfer.h"
#include "app/pipeline.h"
#include "workload/generators.h"

namespace bytecache::gateway {
namespace {

using app::Pipeline;
using app::PipelineConfig;
using util::Bytes;
using util::Rng;

struct MultiRun {
  sim::Simulator sim;
  std::unique_ptr<Pipeline> pipeline;
  std::vector<std::unique_ptr<app::FileTransfer>> transfers;

  MultiRun(core::PolicyKind policy, double loss,
           const std::vector<Bytes>& files, std::uint64_t seed = 1,
           sim::SimTime stagger = sim::ms(50)) {
    PipelineConfig cfg;
    cfg.policy = policy;
    cfg.loss_rate = loss;
    cfg.seed = seed;
    pipeline = std::make_unique<Pipeline>(sim, cfg, files.size());
    for (std::size_t i = 0; i < files.size(); ++i) {
      transfers.push_back(std::make_unique<app::FileTransfer>(
          sim, pipeline->sender(i), pipeline->receiver(i), files[i],
          cfg.reverse_link.propagation_delay, sim::sec(600)));
      // Stagger the starts so the flows overlap but don't synchronize.
      sim.at(static_cast<sim::SimTime>(i) * stagger,
             [t = transfers.back().get()]() { t->start(); });
    }
  }

  void run() { sim.run(); }

  [[nodiscard]] bool all_done() const {
    for (const auto& t : transfers) {
      if (!t->done()) return false;
    }
    return true;
  }
};

TEST(MultiFlow, AllFlowsCompleteWithoutLoss) {
  Rng rng(1);
  std::vector<Bytes> files;
  for (int i = 0; i < 3; ++i) {
    files.push_back(workload::make_file1(rng, 80'000 + 10'000 * i));
  }
  MultiRun run(core::PolicyKind::kCacheFlush, 0.0, files);
  run.run();
  ASSERT_TRUE(run.all_done());
  for (std::size_t i = 0; i < files.size(); ++i) {
    EXPECT_TRUE(run.transfers[i]->result().completed) << i;
    EXPECT_TRUE(run.transfers[i]->result().verified) << i;
    EXPECT_EQ(run.transfers[i]->result().delivered_bytes, files[i].size());
  }
}

TEST(MultiFlow, FlowsAreIsolatedAtTheTcpLayer) {
  // Different files per flow: each receiver gets exactly its own bytes.
  Rng rng(2);
  std::vector<Bytes> files = {workload::make_file1(rng, 60'000),
                              workload::make_video(rng, 60'000),
                              workload::make_ebook(rng, {.size = 60'000})};
  MultiRun run(core::PolicyKind::kTcpSeq, 0.0, files);
  run.run();
  for (std::size_t i = 0; i < files.size(); ++i) {
    ASSERT_TRUE(run.transfers[i]->result().completed) << i;
    EXPECT_EQ(run.pipeline->receiver(i).stream(), files[i]) << i;
  }
}

TEST(MultiFlow, InterFlowRedundancyEliminated) {
  // Two clients fetch the SAME object: the second transfer's bytes are
  // mostly eliminated against the first — the inter-flow savings the
  // paper's introduction credits byte caching with.
  Rng rng(3);
  const Bytes file = workload::make_video(rng, 150'000);  // incompressible
  auto wire_bytes = [&](std::size_t flows) {
    std::vector<Bytes> files(flows, file);
    MultiRun run(core::PolicyKind::kTcpSeq, 0.0, files, 7,
                 /*stagger=*/sim::ms(400));
    run.run();
    for (const auto& t : run.transfers) {
      EXPECT_TRUE(t->result().completed);
      EXPECT_TRUE(t->result().verified);
    }
    return run.pipeline->forward_link().stats().bytes_sent;
  };
  const auto one = wire_bytes(1);
  const auto two = wire_bytes(2);
  // The second copy should cost far less than the first (intra-file the
  // object is incompressible, so all savings are inter-flow).
  EXPECT_LT(static_cast<double>(two), 1.35 * static_cast<double>(one));
}

TEST(MultiFlow, NaiveLossPoisonsOtherConnections) {
  // One lossy transfer with the naive encoder wedges: packets of *other*
  // flows that reference the desynchronized cache die too.
  Rng rng(4);
  const Bytes file = workload::make_video(rng, 200'000);
  std::vector<Bytes> files(3, file);  // strong inter-flow coupling
  MultiRun run(core::PolicyKind::kNaive, 0.01, files, 11,
               /*stagger=*/sim::ms(300));
  run.run();
  int stalled = 0;
  for (const auto& t : run.transfers) {
    if (t->result().stalled) ++stalled;
    EXPECT_TRUE(t->result().verified);  // delivered prefixes still exact
  }
  EXPECT_GE(stalled, 2);
}

TEST(MultiFlow, RobustPoliciesSurviveLossAcrossFlows) {
  Rng rng(5);
  std::vector<Bytes> files(3, workload::make_file1(rng, 100'000));
  for (auto kind : {core::PolicyKind::kCacheFlush, core::PolicyKind::kTcpSeq,
                    core::PolicyKind::kKDistance}) {
    MultiRun run(kind, 0.03, files, 13);
    run.run();
    for (std::size_t i = 0; i < files.size(); ++i) {
      EXPECT_TRUE(run.transfers[i]->result().completed)
          << core::to_string(kind) << " flow " << i;
      EXPECT_TRUE(run.transfers[i]->result().verified)
          << core::to_string(kind) << " flow " << i;
    }
  }
}

TEST(MultiFlow, InterleavedFlowsDoNotTriggerSpuriousFlushes) {
  // Cache Flush detects retransmissions per flow; concurrent flows with
  // interleaved (incomparable) sequence numbers must not look like
  // retransmissions of each other.
  Rng rng(6);
  std::vector<Bytes> files;
  for (int i = 0; i < 4; ++i) {
    files.push_back(workload::make_file1(rng, 80'000));
  }
  MultiRun run(core::PolicyKind::kCacheFlush, 0.0, files, 17,
               /*stagger=*/sim::ms(5));  // heavy interleaving
  run.run();
  for (const auto& t : run.transfers) {
    ASSERT_TRUE(t->result().completed);
  }
  EXPECT_EQ(run.pipeline->encoder_gw().encoder()->stats().flushes, 0u);
  EXPECT_EQ(run.pipeline->encoder_gw().encoder()->stats().retransmissions,
            0u);
}

TEST(MultiFlow, AckGatedSafeAcrossFlows) {
  // ACK gating keys the gate per flow; cross-flow references must only
  // open after *that* flow's copy is ACKed.  End-to-end: zero undecodable
  // packets under loss, all flows complete.
  Rng rng(7);
  const Bytes file = workload::make_file1(rng, 100'000);
  std::vector<Bytes> files(3, file);
  PipelineConfig cfg;
  cfg.policy = core::PolicyKind::kNaive;
  cfg.dre.ack_gated = true;
  cfg.loss_rate = 0.05;
  cfg.seed = 19;
  sim::Simulator sim;
  Pipeline pipeline(sim, cfg, files.size());
  std::vector<std::unique_ptr<app::FileTransfer>> transfers;
  for (std::size_t i = 0; i < files.size(); ++i) {
    transfers.push_back(std::make_unique<app::FileTransfer>(
        sim, pipeline.sender(i), pipeline.receiver(i), files[i],
        cfg.reverse_link.propagation_delay, sim::sec(600)));
    sim.at(static_cast<sim::SimTime>(i) * sim::ms(100),
           [t = transfers.back().get()]() { t->start(); });
  }
  sim.run();
  for (const auto& t : transfers) {
    EXPECT_TRUE(t->result().completed);
    EXPECT_TRUE(t->result().verified);
  }
  EXPECT_EQ(pipeline.decoder_gw().stats().dropped, 0u);
}

}  // namespace
}  // namespace bytecache::gateway
