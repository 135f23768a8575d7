// Multi-connection behaviour of the shared byte cache.
//
// Reproduces two claims the paper makes in passing:
//   - introduction: byte caching "eliminates redundancy both intra-flow
//     and inter-flows" — measured as the marginal wire cost of additional
//     clients fetching the same (incompressible) object;
//   - Section IV-C: after a desynchronization, "not only one TCP
//     connection, but all subsequent connections going through the
//     encoder and decoder may get affected" — measured as the fraction of
//     *companion* connections that stall when the naive encoder meets 1%
//     loss, vs the loss-robust encoders.
#include <cstdio>
#include <memory>

#include "app/file_transfer.h"
#include "app/pipeline.h"
#include "bench/common.h"

using namespace bytecache;

namespace {

struct MultiResult {
  double completion_rate = 0.0;
  std::uint64_t wire_bytes = 0;
};

MultiResult run_flows(core::PolicyKind policy, double loss,
                      const std::vector<util::Bytes>& files,
                      std::uint64_t seed) {
  sim::Simulator sim;
  app::PipelineConfig cfg;
  cfg.policy = policy;
  cfg.loss_rate = loss;
  cfg.seed = seed;
  app::Pipeline pipeline(sim, cfg, files.size());
  std::vector<std::unique_ptr<app::FileTransfer>> transfers;
  for (std::size_t i = 0; i < files.size(); ++i) {
    transfers.push_back(std::make_unique<app::FileTransfer>(
        sim, pipeline.sender(i), pipeline.receiver(i), files[i],
        cfg.reverse_link.propagation_delay, sim::sec(600)));
    sim.at(static_cast<sim::SimTime>(i) * sim::ms(250),
           [t = transfers.back().get()]() { t->start(); });
  }
  sim.run();
  MultiResult r;
  int completed = 0;
  for (const auto& t : transfers) {
    if (t->result().completed) ++completed;
  }
  r.completion_rate = static_cast<double>(completed) / files.size();
  r.wire_bytes = pipeline.forward_link().stats().bytes_sent;
  return r;
}

void inter_flow_savings() {
  harness::print_heading("Inter-flow redundancy elimination");
  util::Rng rng(0x3131);
  // Incompressible object: all savings are across flows.
  const util::Bytes object = workload::make_video(rng, 300'000);
  harness::Table table(
      {"clients", "wire bytes", "bytes per client", "marginal cost"});
  std::uint64_t prev = 0;
  for (std::size_t flows : {1u, 2u, 3u, 4u}) {
    std::vector<util::Bytes> files(flows, object);
    auto r = run_flows(core::PolicyKind::kTcpSeq, 0.0, files, 5);
    table.add_row(
        {std::to_string(flows), std::to_string(r.wire_bytes),
         std::to_string(r.wire_bytes / flows),
         prev == 0 ? std::string("-") : std::to_string(r.wire_bytes - prev)});
    prev = r.wire_bytes;
  }
  table.print();
  std::printf("(marginal cost of each additional client of the same object "
              "is a small\nfraction of the first transfer)\n");
}

void cross_connection_stalls() {
  harness::print_heading(
      "Cross-connection stalls (3 clients, same object, 1% loss)");
  util::Rng rng(0x3232);
  const util::Bytes object = workload::make_video(rng, 200'000);
  std::vector<util::Bytes> files(3, object);
  harness::Table table({"policy", "connections completed"});
  for (auto kind : {core::PolicyKind::kNaive, core::PolicyKind::kCacheFlush,
                    core::PolicyKind::kTcpSeq,
                    core::PolicyKind::kKDistance}) {
    double completion = 0.0;
    const int trials = 10;
    for (int i = 0; i < trials; ++i) {
      completion += run_flows(kind, 0.01, files, 100 + i).completion_rate;
    }
    table.add_row({std::string(core::to_string(kind)),
                   harness::Table::pct(100.0 * completion / trials, 0)});
  }
  table.print();
}

}  // namespace

int main() {
  inter_flow_savings();
  cross_connection_stalls();
  return 0;
}
