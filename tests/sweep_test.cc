// Final property sweeps across subsystem combinations: HTTP sessions per
// policy, multi-flow counts, link rates, and feature compositions.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "app/file_transfer.h"
#include "app/http_session.h"
#include "app/pipeline.h"
#include "harness/experiment.h"
#include "tests/testutil.h"
#include "workload/generators.h"
#include "workload/text.h"

namespace bytecache {
namespace {

using util::Bytes;
using util::Rng;

// ------------------------------------------------ HTTP x policy sweep --

class HttpPolicySweep : public ::testing::TestWithParam<core::PolicyKind> {};

TEST_P(HttpPolicySweep, LossyBrowsingSessionSucceeds) {
  sim::Simulator sim;
  Rng rng(17);
  app::HttpServer server;
  workload::WebPageParams params;
  params.items = 30;
  util::Bytes page = workload::make_web_page(rng, params);
  while (page.size() < 30'000) {
    util::append(page, util::to_bytes(workload::make_sentence(rng)));
  }
  server.add_object("/p", page);

  app::PipelineConfig cfg;
  cfg.policy = GetParam();
  cfg.loss_rate = 0.02;
  cfg.seed = 21;
  app::HttpSession session(sim, cfg, std::move(server));
  for (int i = 0; i < 3; ++i) {
    app::FetchResult r = session.fetch("/p");
    ASSERT_TRUE(r.ok) << core::to_string(GetParam()) << " fetch " << i;
    EXPECT_EQ(r.response.body, page) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, HttpPolicySweep,
    ::testing::Values(core::PolicyKind::kNone, core::PolicyKind::kCacheFlush,
                      core::PolicyKind::kTcpSeq, core::PolicyKind::kKDistance),
    [](const ::testing::TestParamInfo<core::PolicyKind>& info) {
      return std::string(core::to_string(info.param));
    });

// ---------------------------------------------- multi-flow count sweep --

class FlowCountSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FlowCountSweep, AllFlowsCompleteUnderLoss) {
  const std::size_t flows = GetParam();
  sim::Simulator sim;
  app::PipelineConfig cfg;
  cfg.policy = core::PolicyKind::kCacheFlush;
  cfg.loss_rate = 0.02;
  cfg.seed = 31 + flows;
  app::Pipeline pipeline(sim, cfg, flows);
  Rng rng(41);
  std::vector<Bytes> files;
  std::vector<std::unique_ptr<app::FileTransfer>> transfers;
  for (std::size_t i = 0; i < flows; ++i) {
    files.push_back(workload::make_file1(rng, 40'000 + 5'000 * i));
    transfers.push_back(std::make_unique<app::FileTransfer>(
        sim, pipeline.sender(i), pipeline.receiver(i), files.back(),
        cfg.reverse_link.propagation_delay, sim::sec(600)));
    sim.at(static_cast<sim::SimTime>(i) * sim::ms(20),
           [t = transfers.back().get()]() { t->start(); });
  }
  sim.run();
  for (std::size_t i = 0; i < flows; ++i) {
    EXPECT_TRUE(transfers[i]->result().completed) << "flow " << i;
    EXPECT_TRUE(transfers[i]->result().verified) << "flow " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Counts, FlowCountSweep,
                         ::testing::Values(1u, 2u, 4u, 8u),
                         [](const ::testing::TestParamInfo<std::size_t>& i) {
                           return "flows" + std::to_string(i.param);
                         });

// ------------------------------------------------------ link rate sweep --

class LinkRateSweep : public ::testing::TestWithParam<double> {};

TEST_P(LinkRateSweep, ThroughputTracksTheShaper) {
  const double rate = GetParam();
  Rng rng(51);
  const Bytes file = workload::make_video(rng, 200'000);  // incompressible
  harness::ExperimentConfig cfg;
  cfg.policy = core::PolicyKind::kNone;
  cfg.forward_link.rate_bytes_per_sec = rate;
  auto r = harness::run_trial(cfg, file, 5);
  ASSERT_TRUE(r.completed);
  // Download time is bounded below by wire bytes / rate, and the link
  // should stay mostly saturated (within 3x of the bound at these sizes).
  const double floor_s = static_cast<double>(r.wire_bytes_forward) / rate;
  EXPECT_GE(r.duration_s, floor_s * 0.99);
  EXPECT_LE(r.duration_s, floor_s * 3.0);
}

INSTANTIATE_TEST_SUITE_P(Rates, LinkRateSweep,
                         ::testing::Values(250e3, 1e6, 4e6),
                         [](const ::testing::TestParamInfo<double>& i) {
                           return "bps" + std::to_string(
                                              static_cast<long>(i.param));
                         });

// ------------------------------------------- feature composition sweep --

struct Composition {
  bool nack;
  bool ack_gated;
  bool delack;
  tcp::CongestionAlgo algo;
};

class CompositionSweep
    : public ::testing::TestWithParam<std::tuple<int, core::PolicyKind>> {};

TEST_P(CompositionSweep, EveryCombinationCompletesAndVerifies) {
  static const Composition kCompositions[] = {
      {true, false, false, tcp::CongestionAlgo::kNewReno},
      {false, true, false, tcp::CongestionAlgo::kNewReno},
      {true, true, false, tcp::CongestionAlgo::kNewReno},
      {false, true, true, tcp::CongestionAlgo::kTahoe},
      {true, false, true, tcp::CongestionAlgo::kTahoe},
  };
  const Composition& comp = kCompositions[std::get<0>(GetParam())];
  Rng rng(61);
  const Bytes file = workload::make_file1(rng, 100'000);
  harness::ExperimentConfig cfg;
  cfg.policy = std::get<1>(GetParam());
  cfg.dre.nack_feedback = comp.nack;
  cfg.dre.ack_gated = comp.ack_gated;
  cfg.tcp.delayed_ack = comp.delack;
  cfg.tcp.algo = comp.algo;
  cfg.loss_rate = 0.04;
  auto r = harness::run_trial(cfg, file, 71);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verified);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, CompositionSweep,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values(core::PolicyKind::kCacheFlush,
                                         core::PolicyKind::kTcpSeq,
                                         core::PolicyKind::kKDistance)),
    [](const ::testing::TestParamInfo<std::tuple<int, core::PolicyKind>>& i) {
      return "combo" + std::to_string(std::get<0>(i.param)) + "_" +
             std::string(core::to_string(std::get<1>(i.param)));
    });

// ----------------------------------------------------- workload sweep --

class ObjectKindSweep : public ::testing::TestWithParam<int> {};

TEST_P(ObjectKindSweep, TransfersVerifyForEveryObjectClass) {
  Rng rng(81);
  Bytes object;
  switch (GetParam()) {
    case 0: object = workload::make_ebook(rng, {.size = 120'000}); break;
    case 1: object = workload::make_video(rng, 120'000); break;
    case 2: {
      while (object.size() < 120'000) {
        util::append(object, workload::make_web_page(rng, {}));
      }
      object.resize(120'000);
      break;
    }
    case 3: object = workload::make_file1(rng, 120'000); break;
    case 4: object = workload::make_file2(rng, 120'000); break;
  }
  harness::ExperimentConfig cfg;
  cfg.policy = core::PolicyKind::kTcpSeq;
  cfg.loss_rate = 0.02;
  auto r = harness::run_trial(cfg, object, 91);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verified);
}

std::string object_kind_name(const ::testing::TestParamInfo<int>& i) {
  static const char* kNames[] = {"ebook", "video", "webpage", "file1",
                                 "file2"};
  return kNames[i.param];
}

INSTANTIATE_TEST_SUITE_P(Kinds, ObjectKindSweep, ::testing::Range(0, 5),
                         object_kind_name);

}  // namespace
}  // namespace bytecache
