// Resilience controller sweep (EXPERIMENTS.md "Figure 13 + controller"):
// the Fig. 13 perceived-loss axis, extended with the adaptive resilience
// layer.  For each actual loss rate it compares the resilient policy
// (perceived-loss estimator + degradation ladder + epoch resync) against
// the fixed rungs it moves between — CacheFlush (always safe), plain
// naive caching (maximal savings, stalls under loss), and pass-through —
// reporting download time, wire bytes, the encoder-side loss estimate
// (any codec keeping a loss table: resilient or coded), the worst ladder
// rung the controller reached, and the coded row's mean repairs per
// generation (loss-sized, DESIGN.md §13.3).
#include <algorithm>
#include <cstdio>

#include "bench/common.h"

using namespace bytecache;

int main(int argc, char** argv) {
  std::size_t trials = 6;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") trials = 2;
  }

  harness::print_heading(
      "Resilience sweep: degradation controller vs fixed policies (File 1)");
  bench::print_paper_note(
      "Fig. 13 frames perceived loss; the controller should track the "
      "CacheFlush curve on delay while spending no more bytes than "
      "pass-through at any loss rate");

  const auto& file = bench::file1();
  // The row list mixes the PolicyKind rungs with the coded-repair
  // configuration (DESIGN.md §13): TcpSeq caching with FEC generations
  // over the DRE stream, recovering <= R losses per generation without a
  // resync round-trip.
  struct Row {
    const char* name;
    core::PolicyKind kind;
    bool coded;
  };
  const Row rows[] = {
      {"resilient", core::PolicyKind::kResilient, false},
      {"coded", core::PolicyKind::kTcpSeq, true},
      {"cache_flush", core::PolicyKind::kCacheFlush, false},
      {"naive", core::PolicyKind::kNaive, false},
      {"pass-through", core::PolicyKind::kNone, false},
  };
  harness::Table table({"actual loss %", "policy", "completion %",
                        "duration s", "wire MB", "est. loss %", "worst rung",
                        "resyncs", "reconstr.", "repairs/gen"});
  for (double loss : {0.01, 0.02, 0.05, 0.08, 0.10}) {
    for (const Row& row : rows) {
      auto cfg = bench::default_config(row.kind, loss, trials);
      if (row.kind == core::PolicyKind::kResilient ||
          row.kind == core::PolicyKind::kNaive || row.coded) {
        // Naive runs with the resync layer too: the sweep shows epoch
        // recovery turning the paper's Section IV stall into bounded
        // degradation even without the controller.
        cfg.dre.epoch_resync = true;
      }
      cfg.dre.coded_repair = row.coded;
      auto agg = harness::run_experiment(cfg, file);
      double est_loss = 0.0, resyncs = 0.0, reconstructed = 0.0;
      double repairs_per_gen = 0.0;
      const char* rung = "-";
      for (const harness::TrialResult& t : agg.trials) {
        est_loss = std::max(est_loss, t.estimated_loss);
        resyncs += static_cast<double>(t.resyncs_honored);
        reconstructed += static_cast<double>(t.packets_reconstructed);
        repairs_per_gen += t.repairs_per_generation;
        if (t.degradation_level[0] != '-') rung = t.degradation_level;
      }
      table.add_row({harness::Table::num(loss * 100, 0), row.name,
                     harness::Table::pct(agg.completion_rate * 100, 0),
                     harness::Table::num(agg.duration_s.mean(), 2),
                     harness::Table::num(agg.wire_bytes.mean() / 1e6, 2),
                     harness::Table::pct(est_loss * 100, 1), rung,
                     harness::Table::num(resyncs / trials, 1),
                     harness::Table::num(reconstructed / trials, 1),
                     row.coded ? harness::Table::num(repairs_per_gen / trials, 2)
                               : "-"});
    }
  }
  table.print();
  std::printf("\n(CSV)\n%s", table.to_csv().c_str());
  return 0;
}
