// Loss frontier sweep (EXPERIMENTS.md "Loss frontier"): every loss
// answer the repo ships, run on File 1 at nine channel conditions —
// uniform loss at 1/2/5/10 %, Gilbert-Elliott loss at the same averages,
// and 2 % reordering on a loss-free link — with a fixed 120 trials per
// cell.
//
// The paper's cost is perceived loss (Section VII), paid in download
// time; byte caching's gain is wire bytes.  So each cell reports mean
// and median duration (a stalled trial counts at its abort time) and
// mean wire bytes, and a row is on the frontier at a point unless
// another row there has both a lower mean duration and fewer mean wire
// bytes.  Completion is reported but not ranked first: a stall is
// priced into the mean duration instead.  The estimate column is the
// encoder-side perceived-loss gauge, read from the one row that keeps a
// loss table (coded repair).  The simulation runs in simulated time, so
// the table is deterministic.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.h"

using namespace bytecache;

namespace {

constexpr std::size_t kTrials = 120;

struct Row {
  const char* name;
  core::PolicyKind kind;
  bool coded;
  bool ack_gated;
  bool epoch_resync;
};

struct Point {
  const char* channel;  // "uniform", "bursty" or "reorder"
  double rate;          // loss rate, or reorder probability
};

struct Cell {
  double completion = 0.0;
  double mean_s = 0.0;
  double median_s = 0.0;
  double wire_kb = 0.0;
  double actual_loss = 0.0;
  double estimate = 0.0;
};

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

}  // namespace

int main() {
  harness::print_heading("Loss frontier: duration vs wire bytes (File 1)");
  bench::print_paper_note(
      "Fig. 13 frames perceived loss; Section VIII proposes ACK-gated "
      "references and loss-sized repair as fixes");

  const auto& file = bench::file1();
  const Row rows[] = {
      {"none", core::PolicyKind::kNone, false, false, false},
      {"cache_flush", core::PolicyKind::kCacheFlush, false, false, false},
      {"coded", core::PolicyKind::kTcpSeq, true, false, true},
      {"ack_gated", core::PolicyKind::kTcpSeq, false, true, false},
  };
  const Point points[] = {
      {"uniform", 0.01}, {"uniform", 0.02}, {"uniform", 0.05},
      {"uniform", 0.10}, {"bursty", 0.01},  {"bursty", 0.02},
      {"bursty", 0.05},  {"bursty", 0.10},  {"reorder", 0.02},
  };
  constexpr std::size_t kRows = std::size(rows);

  harness::Table table({"channel", "rate %", "policy", "completion %",
                        "mean s", "median s", "wire KB", "actual loss %",
                        "est. loss %", "frontier"});
  std::size_t on_frontier[kRows] = {};
  for (const Point& point : points) {
    const bool reorder = std::string(point.channel) == "reorder";
    const bool bursty = std::string(point.channel) == "bursty";
    Cell cells[kRows];
    for (std::size_t i = 0; i < kRows; ++i) {
      const Row& row = rows[i];
      auto cfg = bench::default_config(row.kind, reorder ? 0.0 : point.rate,
                                       kTrials);
      cfg.bursty_loss = bursty;
      if (reorder) cfg.forward_link.reorder_prob = point.rate;
      cfg.dre.coded_repair = row.coded;
      cfg.dre.ack_gated = row.ack_gated;
      cfg.dre.epoch_resync = row.epoch_resync;
      const auto agg = harness::run_experiment(cfg, file);
      std::vector<double> durations;
      Cell& c = cells[i];
      for (const harness::TrialResult& t : agg.trials) {
        durations.push_back(t.duration_s);
        c.estimate = std::max(c.estimate, t.estimated_loss);
      }
      c.completion = agg.completion_rate;
      c.mean_s = agg.duration_s.mean();
      c.median_s = median(std::move(durations));
      c.wire_kb = agg.wire_bytes.mean() / 1e3;
      c.actual_loss = agg.actual_loss.mean();
    }
    for (std::size_t i = 0; i < kRows; ++i) {
      const Cell& c = cells[i];
      bool dominated = false;
      for (const Cell& other : cells) {
        dominated |= other.mean_s < c.mean_s && other.wire_kb < c.wire_kb;
      }
      if (!dominated) ++on_frontier[i];
      table.add_row({point.channel, harness::Table::num(point.rate * 100, 0),
                     rows[i].name,
                     harness::Table::pct(c.completion * 100, 1),
                     harness::Table::num(c.mean_s, 2),
                     harness::Table::num(c.median_s, 2),
                     harness::Table::num(c.wire_kb, 0),
                     harness::Table::num(c.actual_loss * 100, 2),
                     rows[i].coded ? harness::Table::num(c.estimate * 100, 1)
                                   : "-",
                     dominated ? "-" : "yes"});
    }
  }
  table.print();
  std::printf("\nfrontier points (of %zu):", std::size(points));
  for (std::size_t i = 0; i < kRows; ++i) {
    std::printf(" %s %zu%s", rows[i].name, on_frontier[i],
                i + 1 < kRows ? "," : "\n");
  }
  std::printf("\n(CSV)\n%s", table.to_csv().c_str());
  return 0;
}
