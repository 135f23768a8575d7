// Pins the Fig. 3 topology's observable results, so that restructuring
// app::Pipeline cannot change them.  The goldens were recorded when one
// flow and N flows were still built by two separate classes, and must
// hold for the one Pipeline:
//
//   - per case (policy x loss x flows): every flow's download time and a
//     digest of the pipeline snapshot, leaving out the wall-clock *_ns
//     span histograms, which differ between any two runs;
//   - the full (time, event, uid, aux) trace of a run whose decoder sends
//     NACKs, loss reports and resync requests.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "app/file_transfer.h"
#include "app/pipeline.h"
#include "sim/trace.h"
#include "workload/generators.h"

namespace bytecache::app {
namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::uint64_t fnv(std::uint64_t h, const char* s) {
  for (; *s != '\0'; ++s) {
    h ^= static_cast<unsigned char>(*s);
    h *= 0x100000001b3ULL;
  }
  return h;
}

bool is_wall_clock(const obs::MetricValue& v) {
  return v.kind == obs::MetricKind::kHistogram && v.name.size() >= 3 &&
         v.name.compare(v.name.size() - 3, 3, "_ns") == 0;
}

std::uint64_t snapshot_digest(const obs::Snapshot& snap) {
  std::uint64_t h = kFnvBasis;
  char buf[64];
  for (const obs::MetricValue& v : snap.entries()) {
    if (is_wall_clock(v)) continue;
    h = fnv(h, v.name.c_str());
    switch (v.kind) {
      case obs::MetricKind::kCounter:
        std::snprintf(buf, sizeof buf, "=c%" PRIu64, v.counter);
        h = fnv(h, buf);
        break;
      case obs::MetricKind::kGauge:
        std::snprintf(buf, sizeof buf, "=g%.12g", v.gauge);
        h = fnv(h, buf);
        break;
      case obs::MetricKind::kHistogram:
        std::snprintf(buf, sizeof buf, "=h%" PRIu64 "/%" PRIu64 "/%" PRIu64,
                      v.hist.count, v.hist.sum, v.hist.max);
        h = fnv(h, buf);
        for (std::uint64_t b : v.hist.buckets) {
          std::snprintf(buf, sizeof buf, ",%" PRIu64, b);
          h = fnv(h, buf);
        }
        break;
    }
  }
  return h;
}

struct Golden {
  std::size_t flows;
  core::PolicyKind policy;
  double loss;
  bool bursty_resync;  // Gilbert–Elliott loss plus epoch_resync
  std::vector<std::int64_t> duration_ns;  // one per flow
  std::uint64_t digest;
};

using core::PolicyKind;

const Golden kGoldens[] = {
    {1, PolicyKind::kCacheFlush, 0.00, false, {58430000}, 0x6621d8eb771cbd8fULL},
    {1, PolicyKind::kCacheFlush, 0.02, false, {68462000}, 0x7c5db057e7172762ULL},
    {1, PolicyKind::kCacheFlush, 0.05, true, {3296932000}, 0x569d87022a1b1efdULL},
    {1, PolicyKind::kTcpSeq, 0.00, false, {58430000}, 0x6621d8eb771cbd8fULL},
    {1, PolicyKind::kTcpSeq, 0.02, false, {68462000}, 0xf1f435bf8ef9d091ULL},
    {1, PolicyKind::kTcpSeq, 0.05, true, {2484475999}, 0x8b6676a42c062722ULL},
    {1, PolicyKind::kKDistance, 0.00, false, {84398996}, 0xd3c64d5d863217e7ULL},
    {1, PolicyKind::kKDistance, 0.02, false, {94878996}, 0xb90b2198f33b4a7bULL},
    {1, PolicyKind::kKDistance, 0.05, true, {3314476998}, 0x6df1e4311ea460eaULL},
    {3, PolicyKind::kCacheFlush, 0.00, false,
     {62356000, 86412000, 93320000}, 0xb4c9d9fb7db97229ULL},
    {3, PolicyKind::kCacheFlush, 0.02, false,
     {77343000, 298463996, 684793999}, 0xf91fd236c281a37dULL},
    {3, PolicyKind::kCacheFlush, 0.05, true,
     {1091871000, 1726830000, 1518934998}, 0x2160cba8271a0375ULL},
    {3, PolicyKind::kTcpSeq, 0.00, false,
     {62356000, 86412000, 93320000}, 0xb4c9d9fb7db97229ULL},
    {3, PolicyKind::kTcpSeq, 0.02, false,
     {77343000, 289969999, 679663999}, 0x39a9d0145fe55350ULL},
    {3, PolicyKind::kTcpSeq, 0.05, true,
     {688175999, 1289067998, 3073940000}, 0xea82386fdfafc228ULL},
    {3, PolicyKind::kKDistance, 0.00, false,
     {98468999, 189790996, 182632996}, 0x74e04f0740710061ULL},
    {3, PolicyKind::kKDistance, 0.02, false,
     {171051998, 210459998, 207212997}, 0x4b8b83535fa9e89eULL},
    {3, PolicyKind::kKDistance, 0.05, true,
     {947805997, 1142500000, 1103777000}, 0xf45b260bfba2e998ULL},
};

TEST(TopologyEquiv, DownloadTimesAndSnapshotsMatchTheGoldens) {
  for (const Golden& g : kGoldens) {
    SCOPED_TRACE(std::string(core::to_string(g.policy)) + " flows=" +
                 std::to_string(g.flows) + " loss=" + std::to_string(g.loss) +
                 (g.bursty_resync ? " bursty+resync" : ""));
    PipelineConfig cfg;
    cfg.policy = g.policy;
    cfg.loss_rate = g.loss;
    cfg.bursty_loss = g.bursty_resync;
    cfg.dre.epoch_resync = g.bursty_resync;
    cfg.seed = 7;
    sim::Simulator sim;
    Pipeline pipeline(sim, cfg, g.flows);
    util::Rng rng(11);
    std::vector<std::unique_ptr<FileTransfer>> transfers;
    for (std::size_t i = 0; i < g.flows; ++i) {
      transfers.push_back(std::make_unique<FileTransfer>(
          sim, pipeline.sender(i), pipeline.receiver(i),
          workload::make_file1(rng, 100'000),
          cfg.reverse_link.propagation_delay, sim::sec(600)));
      sim.at(static_cast<sim::SimTime>(i) * sim::ms(40),
             [t = transfers.back().get()] { t->start(); });
    }
    sim.run();
    ASSERT_EQ(transfers.size(), g.duration_ns.size());
    for (std::size_t i = 0; i < transfers.size(); ++i) {
      EXPECT_EQ(std::llround(transfers[i]->result().duration_s * 1e9),
                g.duration_ns[i])
          << "flow " << i;
    }
    EXPECT_EQ(snapshot_digest(pipeline.snapshot()), g.digest);
  }
}

TEST(TopologyEquiv, FeedbackTraceMatchesTheGolden) {
  PipelineConfig cfg;
  cfg.policy = core::PolicyKind::kCacheFlush;
  cfg.dre.nack_feedback = true;
  cfg.dre.epoch_resync = true;
  cfg.loss_rate = 0.03;
  cfg.seed = 3;
  sim::Simulator sim;
  Pipeline pipeline(sim, cfg);
  sim::Trace trace;
  pipeline.attach_trace(&trace);
  // Packet uids come from a process-wide counter: digest them relative
  // to one allocated just before the run.
  const std::uint64_t base =
      packet::make_packet(0, 0, packet::IpProto::kUdp, {})->uid;
  util::Rng rng(1);
  FileTransfer transfer(sim, pipeline, workload::make_file1(rng, 150'000));
  transfer.run_to_completion();
  sim.run();

  std::uint64_t h = kFnvBasis;
  char buf[96];
  for (const sim::TraceRecord& r : trace.records()) {
    std::snprintf(buf, sizeof buf, "%lld,%d,%" PRIu64 ",%" PRIu64 ";",
                  static_cast<long long>(r.time), static_cast<int>(r.event),
                  r.packet_uid - base, r.aux);
    h = fnv(h, buf);
  }
  EXPECT_EQ(trace.records().size(), 960u);
  EXPECT_EQ(trace.count(sim::TraceEvent::kNack), 14u);
  EXPECT_EQ(trace.count(sim::TraceEvent::kLossReport), 39u);
  EXPECT_EQ(trace.count(sim::TraceEvent::kResync), 7u);
  EXPECT_EQ(h, 0xc1cf95df90434504ULL);
}

}  // namespace
}  // namespace bytecache::app
