// Acceptance tests for the resilience layer: a naive encoder with
// epoch_resync enabled must complete where plain naive stalls, because
// epoch resync bounds how long a desync can last; and coded repair
// (DESIGN.md §13) must stay stall-free across 1-10% loss, bursts and
// reordering, rebuilding losses instead of resyncing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <vector>

#include "app/file_transfer.h"
#include "app/pipeline.h"
#include "core/wire.h"
#include "fec/params.h"
#include "fec/wire.h"
#include "harness/experiment.h"
#include "sim/loss_model.h"
#include "workload/generators.h"

namespace bytecache {
namespace {

using util::Bytes;
using util::Rng;

const Bytes& chaos_file() {
  static const Bytes f = [] {
    Rng rng(0x5E51);
    return workload::make_file1(rng, 160'000);
  }();
  return f;
}

harness::ExperimentConfig resilience_config(core::PolicyKind policy,
                                            double loss,
                                            std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.policy = policy;
  cfg.loss_rate = loss;
  cfg.seed = seed;
  cfg.trials = 1;
  return cfg;
}

TEST(ResilienceChaos, EpochResyncRescuesNaiveFromPermanentDesync) {
  // Plain naive caching stalls under loss (a desynced reference is
  // retransmitted forever).  With epoch resync the decoder detects the
  // desync, requests a flush, and the transfer completes.
  for (const std::uint64_t seed : {5ull, 6ull, 7ull}) {
    auto cfg = resilience_config(core::PolicyKind::kNaive, 0.05, seed);
    cfg.dre.epoch_resync = true;
    const auto r = harness::run_trial(cfg, chaos_file(), seed);
    std::printf("  naive+resync seed %llu: %s\n",
                static_cast<unsigned long long>(seed),
                harness::to_json(r).c_str());
    EXPECT_TRUE(r.completed) << seed;
    EXPECT_TRUE(r.verified) << seed;
    EXPECT_FALSE(r.stalled) << seed;
  }
}

// ---- Coded repair (DESIGN.md §13) -------------------------------------

/// TCP-seq encoding with the FEC layer on.
harness::ExperimentConfig coded_config(double loss, std::uint64_t seed) {
  harness::ExperimentConfig cfg;
  cfg.policy = core::PolicyKind::kTcpSeq;
  cfg.dre.epoch_resync = true;
  cfg.dre.coded_repair = true;
  cfg.loss_rate = loss;
  cfg.seed = seed;
  cfg.trials = 1;
  return cfg;
}

TEST(ResilienceChaos, CodedSweepNeverStallsUnderLossBurstsAndReorder) {
  // Coded repair across 1-10% loss, under three link shapes: uniform
  // drops, Gilbert-Elliott bursts, and drops plus reordering.  Stall
  // freedom is the hard requirement — the reorder cache's arrival budget
  // and the encoder's close-on-retransmit must break every wedge.
  struct Shape {
    const char* name;
    bool bursty;
    double reorder;
  };
  constexpr Shape kShapes[] = {
      {"uniform", false, 0.0},
      {"bursty", true, 0.0},
      {"reorder", false, 0.05},
  };
  std::printf(
      "\n  loss   link     completed  duration_s  repairs  rebuilt  reseq "
      " resyncs\n");
  for (const double loss : {0.01, 0.03, 0.05, 0.08, 0.10}) {
    for (const Shape& shape : kShapes) {
      auto cfg = coded_config(loss, 177);
      cfg.bursty_loss = shape.bursty;
      cfg.forward_link.reorder_prob = shape.reorder;
      const auto r = harness::run_trial(cfg, chaos_file(), 177);
      std::printf(
          "  %.2f   %-7s  %-9s  %10.3f  %7llu  %7llu  %5llu  %llu\n", loss,
          shape.name, r.completed ? "yes" : "NO", r.duration_s,
          static_cast<unsigned long long>(r.repair_packets_sent),
          static_cast<unsigned long long>(r.packets_reconstructed),
          static_cast<unsigned long long>(r.packets_resequenced),
          static_cast<unsigned long long>(r.resync_requests));
      EXPECT_TRUE(r.completed) << shape.name << " @ " << loss;
      EXPECT_FALSE(r.stalled) << shape.name << " @ " << loss;
      EXPECT_TRUE(r.verified) << shape.name << " @ " << loss;
      EXPECT_GT(r.repair_packets_sent, 0u) << shape.name << " @ " << loss;
      // Losses actually get repaired, not merely survived via TCP.
      EXPECT_GT(r.packets_reconstructed, 0u) << shape.name << " @ " << loss;
    }
  }
}

TEST(ResilienceChaos, CodedReconstructsWithoutResyncAtLowLoss) {
  // At 1% loss with R = 4 repairs per 16-packet generation, more than R
  // losses in one generation is a ~1e-10 event: every hole is patched
  // by the repair rows and the epoch-resync escape hatch stays unused.
  std::uint64_t reconstructed = 0, drops = 0;
  for (const std::uint64_t seed : {31ull, 32ull, 33ull}) {
    auto cfg = coded_config(0.01, seed);
    cfg.dre.repair.repair_packets = 4;
    const auto r = harness::run_trial(cfg, chaos_file(), seed);
    EXPECT_TRUE(r.completed) << seed;
    EXPECT_TRUE(r.verified) << seed;
    EXPECT_EQ(r.resync_requests, 0u)
        << "seed " << seed << ": repairable losses forced a cache resync";
    reconstructed += r.packets_reconstructed;
    drops += r.link_drops;
  }
  // Across the seeds some data packets definitely dropped, and every
  // hole was patched from repair rows, not by flushing the cache.  (A
  // single seed can see only ACK or repair-packet losses, so the
  // reconstruction assertion is on the aggregate.)
  EXPECT_GT(drops, 0u);
  EXPECT_GT(reconstructed, 0u);
}

TEST(ResilienceChaos, CodedBeatsCacheFlushCompletionAtFivePercent) {
  // Coded repair's reason to exist: at 5% loss, repairing holes beats
  // flushing the cache on every drop.  Averaged over seeds; every coded
  // run must finish with zero stalls for the comparison to count.
  double coded_total = 0.0, flush_total = 0.0;
  constexpr std::uint64_t kSeeds[] = {11, 12, 13, 14};
  for (const std::uint64_t seed : kSeeds) {
    const auto cr =
        harness::run_trial(coded_config(0.05, seed), chaos_file(), seed);
    const auto fr = harness::run_trial(
        resilience_config(core::PolicyKind::kCacheFlush, 0.05, seed),
        chaos_file(), seed);
    ASSERT_TRUE(cr.completed && !cr.stalled) << seed;
    ASSERT_TRUE(fr.completed) << seed;
    coded_total += cr.duration_s;
    flush_total += fr.duration_s;
  }
  std::printf("  5%% loss: coded %.3fs vs cache_flush %.3fs (%.1f%%)\n",
              coded_total, flush_total, 100.0 * coded_total / flush_total);
  EXPECT_LT(coded_total, flush_total);
}

TEST(ResilienceChaos, ReorderOnlyLinkNeedsNoResync) {
  // Pure reordering, zero loss: the generation buffer re-sequences the
  // stream so the core decoder sees encoder order, and the resync path
  // is never provoked.  Without the coded layer the same link forces
  // cache desyncs (reordered cache updates), so this is the reorder
  // cache's acceptance gate.
  for (const std::uint64_t seed : {41ull, 42ull, 43ull}) {
    auto cfg = coded_config(0.0, seed);
    cfg.forward_link.reorder_prob = 0.10;
    const auto r = harness::run_trial(cfg, chaos_file(), seed);
    std::printf("  reorder-only seed %llu: reseq=%llu resyncs=%llu\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(r.packets_resequenced),
                static_cast<unsigned long long>(r.resync_requests));
    EXPECT_TRUE(r.completed) << seed;
    EXPECT_TRUE(r.verified) << seed;
    EXPECT_FALSE(r.stalled) << seed;
    EXPECT_GT(r.packets_resequenced, 0u) << seed;
    EXPECT_EQ(r.resync_requests, 0u) << seed;
    EXPECT_EQ(r.stale_drops, 0u) << seed;
  }
}

TEST(ResilienceChaos, CodedRepairReturnsWhenLossFollowsACleanPhase) {
  // Loss-sized repair (DESIGN.md §13.3) over one long transfer whose
  // link turns lossy: a clean phase long enough to take R to 0, then 5%
  // uniform loss, then Gilbert-Elliott bursts at the same average.  The
  // phases switch on the encoder's closed-generation count.
  constexpr std::uint64_t kCleanGens = fec::kLossMemoryGenerations + 24;
  constexpr std::uint64_t kUniformGens = 48;
  constexpr std::uint64_t kClimbBound = 8;  // generations from loss onset
  sim::Simulator sim;
  app::PipelineConfig pc;
  pc.policy = core::PolicyKind::kTcpSeq;
  pc.dre.epoch_resync = true;
  pc.dre.coded_repair = true;
  pc.seed = 0xC1EA;
  app::Pipeline pipeline(sim, pc);
  const core::Encoder& enc = *pipeline.encoder_gw().encoder();
  const std::size_t repair_packets = pc.dre.repair.repair_packets;

  // Per generation (its id is its close index): R, and the members and
  // repairs the link dropped.
  std::vector<std::size_t> r_of;
  std::map<std::uint16_t, std::size_t> lost_members;
  std::map<std::uint16_t, std::size_t> lost_repairs;
  fec::RepairPacket parsed;
  std::uint64_t onset = 0;
  std::uint64_t burst_onset = 0;
  pipeline.encoder_gw().add_observer([&](const core::EncodeInfo& info) {
    const std::uint64_t gens = enc.repair_stats().generations;
    r_of.resize(gens, 0);
    for (const Bytes& rep : info.repairs) {
      ASSERT_TRUE(fec::RepairPacket::parse_repair_into(rep, parsed));
      ++r_of[parsed.gen_id];
    }
    if (onset == 0 && gens >= kCleanGens) {
      onset = gens;
      pipeline.forward_link().set_loss(
          std::make_unique<sim::BernoulliLoss>(0.05));
    } else if (onset != 0 && burst_onset == 0 &&
               gens >= onset + kUniformGens) {
      burst_onset = gens;
      pipeline.forward_link().set_loss(
          sim::GilbertElliottLoss::with_average_loss(0.05));
    }
  });
  pipeline.forward_link().set_drop_observer([&](const packet::Packet& p) {
    std::uint16_t gen_id = 0;
    std::uint8_t gen_seq = 0;
    if (fec::is_repair_payload(p.payload)) {
      ASSERT_TRUE(fec::RepairPacket::parse_repair_into(p.payload, parsed));
      ++lost_repairs[parsed.gen_id];
    } else if (core::peek_gen_tag(p.payload, gen_id, gen_seq)) {
      ++lost_members[gen_id];
    }
    pipeline.encoder_gw().on_channel_drop(p);
  });

  Rng rng(0xC1EA);
  app::FileTransfer transfer(sim, pipeline,
                             workload::make_file1(rng, 3'600'000));
  transfer.run_to_completion();
  const app::TransferResult& t = transfer.result();
  EXPECT_TRUE(t.completed);
  EXPECT_TRUE(t.verified);
  EXPECT_FALSE(t.stalled);
  ASSERT_NE(burst_onset, 0u) << "the transfer ended before the burst phase";
  ASSERT_GT(r_of.size(), burst_onset + 16);

  // Clean phase: start-up generations carry repair_packets, and R is 0
  // from the moment the path has been watched long enough.
  for (std::uint64_t g = 0; g < onset; ++g) {
    EXPECT_EQ(r_of[g], g < fec::kLossMemoryGenerations ? repair_packets : 0)
        << "clean generation " << g;
  }
  // Loss onset: R climbs back within a bounded number of generations and
  // stays up while loss keeps being seen, through the bursts.
  std::uint64_t first_lossy = onset;
  while (first_lossy < r_of.size() && r_of[first_lossy] < repair_packets) {
    ++first_lossy;
  }
  EXPECT_LT(first_lossy, onset + kClimbBound);
  for (std::uint64_t g = first_lossy; g < r_of.size(); ++g) {
    EXPECT_GE(r_of[g], repair_packets) << "lossy-phase generation " << g;
  }
  // Every generation that lost no more than its repairs could cover was
  // rebuilt by the decoder, not left to a resync.
  std::uint64_t repairable = 0;
  std::uint64_t unrepairable = 0;
  for (const auto& [gen, members] : lost_members) {
    if (gen >= r_of.size()) continue;  // the tail generation never closed
    const std::size_t repairs_left =
        r_of[gen] - std::min(r_of[gen], lost_repairs[gen]);
    (members <= repairs_left ? repairable : unrepairable) += members;
  }
  const obs::Snapshot snap = pipeline.snapshot();
  std::printf("  clean->loss: onset at generation %llu, R back at %llu; "
              "%llu repairable and %llu unrepairable member losses, "
              "%llu rebuilt, %llu resyncs\n",
              static_cast<unsigned long long>(onset),
              static_cast<unsigned long long>(first_lossy),
              static_cast<unsigned long long>(repairable),
              static_cast<unsigned long long>(unrepairable),
              static_cast<unsigned long long>(
                  snap.counter("decoder.fec.reconstructed")),
              static_cast<unsigned long long>(
                  snap.counter("encoder.resync_requests")));
  EXPECT_GT(repairable, 0u);
  EXPECT_EQ(snap.counter("decoder.fec.reconstructed"), repairable);
}

TEST(ResilienceChaos, ControllerRunIsDeterministic) {
  // The loss table and the repair count it sizes are the coded codec's
  // control loop: two runs of one seed must agree on every output.
  const auto cfg = coded_config(0.07, 21);
  const auto a = harness::run_trial(cfg, chaos_file(), 21);
  const auto b = harness::run_trial(cfg, chaos_file(), 21);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.wire_bytes_forward, b.wire_bytes_forward);
  EXPECT_EQ(a.estimated_loss, b.estimated_loss);
  EXPECT_GT(a.estimated_loss, 0.0);
  EXPECT_EQ(a.repair_packets_sent, b.repair_packets_sent);
}

}  // namespace
}  // namespace bytecache
