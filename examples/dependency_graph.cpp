// Renders the inter-packet dependency graph of an encoded transfer as
// Graphviz DOT — the picture behind the paper's Figures 5 and 14
// (circular dependencies / an entire window depending on a lost packet).
//
//   $ ./dependency_graph [policy] [loss%] [packets] > deps.dot
//   $ dot -Tsvg deps.dot -o deps.svg
//
// Nodes are IP packets (uid); an edge a -> b means "a was encoded using
// b".  Lost packets are drawn red; undecodable ones orange.
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "app/file_transfer.h"
#include "app/pipeline.h"
#include "sim/trace.h"
#include "workload/generators.h"

using namespace bytecache;

int main(int argc, char** argv) {
  const std::string policy_name = argc > 1 ? argv[1] : "tcp_seq";
  const double loss = (argc > 2 ? std::atof(argv[2]) : 2.0) / 100.0;
  const std::size_t max_packets = argc > 3 ? std::atoi(argv[3]) : 60;

  const auto policy = core::policy_from_string(policy_name);
  if (!policy) {
    std::fprintf(stderr, "unknown policy '%s'\n", policy_name.c_str());
    return 2;
  }

  util::Rng rng(31);
  const util::Bytes file = workload::make_file1(rng, 120'000);

  sim::Simulator sim;
  app::PipelineConfig cfg;
  cfg.policy = *policy;
  cfg.loss_rate = loss;
  cfg.seed = 4;
  app::Pipeline pipeline(sim, cfg);

  sim::Trace trace;
  pipeline.attach_trace(&trace);

  // Every processed data packet reports its uid and the uids of the
  // cached packets it was encoded against.
  std::map<std::uint64_t, std::vector<std::uint64_t>> edges;
  std::vector<std::uint64_t> order;
  pipeline.encoder_gw().add_observer([&](const core::EncodeInfo& info) {
    if (!info.data_packet) return;
    if (order.size() < max_packets) order.push_back(info.uid);
    if (!info.deps.empty()) edges[info.uid] = info.deps;
  });

  app::FileTransfer transfer(sim, pipeline, file, sim::sec(120));
  transfer.run_to_completion();

  // Classify packets from the trace.
  std::set<std::uint64_t> lost, undecodable;
  for (const auto& r : trace.records()) {
    if (r.event == sim::TraceEvent::kLoss) lost.insert(r.packet_uid);
    if (r.event == sim::TraceEvent::kDecodeDrop) {
      undecodable.insert(r.packet_uid);
    }
  }

  std::printf("// policy=%s loss=%.1f%% — %zu packets shown\n",
              policy_name.c_str(), loss * 100, order.size());
  std::printf("digraph deps {\n  rankdir=RL;\n  node [shape=box, "
              "style=filled, fillcolor=white, fontname=\"monospace\"];\n");
  const std::set<std::uint64_t> shown(order.begin(), order.end());
  for (std::uint64_t uid : order) {
    const char* color = lost.count(uid) != 0          ? "#ff8888"
                        : undecodable.count(uid) != 0 ? "#ffcc88"
                                                      : "white";
    std::printf("  p%llu [label=\"IP %llu\", fillcolor=\"%s\"];\n",
                static_cast<unsigned long long>(uid),
                static_cast<unsigned long long>(uid), color);
    for (std::uint64_t dep : edges[uid]) {
      if (shown.count(dep) != 0) {
        std::printf("  p%llu -> p%llu;\n",
                    static_cast<unsigned long long>(uid),
                    static_cast<unsigned long long>(dep));
      }
    }
  }
  std::printf("}\n");
  std::fprintf(stderr,
               "legend: red = lost on the channel, orange = undecodable "
               "at the decoder\n");
  return 0;
}
