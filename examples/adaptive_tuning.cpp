// The tune-able byte-caching scheme the paper's conclusion calls for:
// "the need to build a tune-able byte caching scheme that can dynamically
// adapt how aggressively it compresses packets based on the packet loss
// rate in the underlying communication channel."
//
// The AdaptivePolicy estimates the loss rate from observed TCP
// retransmissions (EWMA) and tunes the k-distance reference interval to
// k ~= 1/(2p).  This example runs a download whose channel deteriorates
// mid-transfer and shows the encoder backing off its aggressiveness.
//
//   $ ./adaptive_tuning
#include <cstdio>

#include "app/file_transfer.h"
#include "app/pipeline.h"
#include "core/policies.h"
#include "sim/simulator.h"
#include "workload/generators.h"

using namespace bytecache;

namespace {

void run(const char* label, core::PolicyKind kind, std::size_t k = 8) {
  util::Rng rng(77);
  const util::Bytes file = workload::make_file1(rng, 2'000'000);

  sim::Simulator sim;
  app::PipelineConfig cfg;
  cfg.policy = kind;
  cfg.dre.k_distance = k;
  cfg.loss_rate = 0.0;  // the channel starts clean...
  cfg.seed = 5;
  app::Pipeline pipeline(sim, cfg);

  // ...and turns bad at t = 150 ms (the user walks into a stairwell).
  sim.at(sim::ms(150), [&] {
    pipeline.forward_link().set_loss(std::make_unique<sim::BernoulliLoss>(0.08));
  });

  // Periodically report the adaptive encoder's internal state.  The
  // self-rescheduling closure is heap-owned so pending events never
  // outlive it.
  if (kind == core::PolicyKind::kAdaptive) {
    auto report = std::make_shared<std::function<void()>>();
    *report = [&sim, &pipeline, report]() {
      if (auto* enc = pipeline.encoder_gw().encoder()) {
        const auto* adaptive =
            dynamic_cast<const core::AdaptivePolicy*>(&enc->policy());
        if (adaptive != nullptr) {
          std::printf("  [%5.2f s] estimated loss %.1f%%  ->  k = %zu\n",
                      sim::to_seconds(sim.now()),
                      adaptive->estimated_loss() * 100,
                      adaptive->current_k());
        }
      }
      sim.after(sim::ms(400), *report);
    };
    sim.after(sim::ms(100), *report);
  }

  app::FileTransfer transfer(sim, pipeline, file, sim::sec(300));
  transfer.run_to_completion();
  const app::TransferResult& r = transfer.result();
  const auto& link = pipeline.forward_link().stats();
  std::printf("%-22s %s in %6.2f s, %llu wire bytes\n\n", label,
              r.completed ? "completed" : "STALLED", r.duration_s,
              static_cast<unsigned long long>(link.bytes_sent));
}

}  // namespace

int main() {
  std::printf("channel: clean for 150 ms, then 8%% loss\n\n");
  std::printf("adaptive k-distance:\n");
  run("adaptive", core::PolicyKind::kAdaptive);
  run("fixed k-distance (64)", core::PolicyKind::kKDistance, 64);
  run("cache_flush", core::PolicyKind::kCacheFlush);
  run("no DRE", core::PolicyKind::kNone);
  std::printf(
      "the adaptive encoder compresses aggressively while the channel is\n"
      "clean and shortens its reference interval once retransmissions\n"
      "reveal loss — trading compression for a bounded loss cascade.\n");
  return 0;
}
