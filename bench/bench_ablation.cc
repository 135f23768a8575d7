// Ablations over the design choices called out in DESIGN.md:
//   1. Rabin window w and selection bits: savings vs fingerprint density
//      (paper Section III-B: "Small values of k and w are more effective
//      ... However, for performance reasons, larger values may need to be
//      selected").
//   2. Bursty (Gilbert-Elliott) vs independent loss at equal average rate.
#include <cstdio>

#include "bench/common.h"
#include "workload/analyzer.h"

using namespace bytecache;

namespace {

void ablate_window_and_selection() {
  harness::print_heading("Ablation: Rabin window w and selection bits");
  util::Rng rng(0xAB1);
  const auto object = workload::make_file1(rng, 300 * 1460);
  harness::Table table({"w", "select bits", "savings %", "fingerprints"});
  for (std::size_t w : {8u, 16u, 32u, 64u}) {
    for (unsigned bits : {2u, 4u, 6u}) {
      core::DreParams params;
      params.window = w;
      params.select_bits = bits;
      const auto rep = workload::avg_dependencies(object, params);
      // Fingerprint density ~ 1/2^bits of the ~1460 positions per packet.
      table.add_row({std::to_string(w), std::to_string(bits),
                     harness::Table::num(rep.percent_saved, 1),
                     harness::Table::num(1460.0 / (1 << bits), 0)});
    }
  }
  table.print();
}

void ablate_burstiness() {
  harness::print_heading(
      "Ablation: bursty (Gilbert-Elliott) vs independent loss, CacheFlush");
  const auto& file = bench::file1();
  harness::Table table({"avg loss %", "bernoulli delay (s)",
                        "bursty delay (s)", "bernoulli perceived",
                        "bursty perceived"});
  for (double loss : {0.02, 0.05, 0.10}) {
    auto bern = bench::default_config(core::PolicyKind::kCacheFlush, loss, 8);
    auto burst = bench::default_config(core::PolicyKind::kCacheFlush, loss, 8);
    burst.bursty_loss = true;
    auto rb = harness::run_experiment(bern, file);
    auto rg = harness::run_experiment(burst, file);
    table.add_row({harness::Table::num(loss * 100, 0),
                   harness::Table::num(rb.duration_s.mean(), 2),
                   harness::Table::num(rg.duration_s.mean(), 2),
                   harness::Table::pct(rb.perceived_loss.mean() * 100, 1),
                   harness::Table::pct(rg.perceived_loss.mean() * 100, 1)});
  }
  table.print();
}

void ablate_selection_mode() {
  harness::print_heading(
      "Ablation: anchor selection — MODP vs MAXP vs SAMPLEBYTE (CacheFlush)");
  const auto& file = bench::file1();
  harness::Table table({"loss %", "MODP bytes", "MAXP bytes",
                        "SAMPLEBYTE bytes", "MODP delay (s)",
                        "MAXP delay (s)", "SAMPLEBYTE delay (s)"});
  for (double loss : {0.0, 0.02, 0.05}) {
    auto modp = bench::default_config(core::PolicyKind::kCacheFlush, loss, 6);
    auto maxp = modp;
    maxp.dre.select_mode = core::SelectMode::kMaxp;
    auto sb = modp;
    sb.dre.select_mode = core::SelectMode::kSampleByte;
    auto a = harness::run_experiment(modp, file);
    auto b = harness::run_experiment(maxp, file);
    auto c = harness::run_experiment(sb, file);
    table.add_row({harness::Table::num(loss * 100, 0),
                   harness::Table::num(a.wire_bytes.mean(), 0),
                   harness::Table::num(b.wire_bytes.mean(), 0),
                   harness::Table::num(c.wire_bytes.mean(), 0),
                   harness::Table::num(a.duration_s.mean(), 2),
                   harness::Table::num(b.duration_s.mean(), 2),
                   harness::Table::num(c.duration_s.mean(), 2)});
  }
  table.print();
  std::printf("(SAMPLEBYTE trades some match coverage for ~3x faster "
              "anchor selection;\nsee bench_micro_rabin)\n");
}

void ablate_tcp_flavour() {
  harness::print_heading(
      "Ablation: TCP flavour and delayed ACKs under DRE (CacheFlush, 5%)");
  const auto& file = bench::file1();
  harness::Table table({"variant", "delay (s)", "timeouts/trial",
                        "fast retx/trial"});
  struct Variant {
    const char* name;
    tcp::CongestionAlgo algo;
    bool delack;
  };
  const Variant variants[] = {
      {"NewReno, immediate ACKs", tcp::CongestionAlgo::kNewReno, false},
      {"NewReno, delayed ACKs", tcp::CongestionAlgo::kNewReno, true},
      {"Tahoe, immediate ACKs", tcp::CongestionAlgo::kTahoe, false},
  };
  for (const Variant& v : variants) {
    auto cfg = bench::default_config(core::PolicyKind::kCacheFlush, 0.05, 8);
    cfg.tcp.algo = v.algo;
    cfg.tcp.delayed_ack = v.delack;
    auto agg = harness::run_experiment(cfg, file);
    double timeouts = 0, fast = 0;
    for (const auto& t : agg.trials) {
      timeouts += static_cast<double>(t.tcp_timeouts);
      fast += static_cast<double>(t.tcp_fast_retransmits);
    }
    table.add_row({v.name, harness::Table::num(agg.duration_s.mean(), 2),
                   harness::Table::num(timeouts / agg.trials.size(), 1),
                   harness::Table::num(fast / agg.trials.size(), 1)});
  }
  table.print();
}

}  // namespace

int main() {
  ablate_window_and_selection();
  ablate_selection_mode();
  ablate_burstiness();
  ablate_tcp_flavour();
  return 0;
}
