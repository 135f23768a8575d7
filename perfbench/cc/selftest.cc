// Self-test of the benchmark's statistics: the percentile rule (ten
// samples beyond any reported tail), the median, and the ratio bases.
// Exits 0 when every check holds, 1 otherwise.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench_selftest: FAILED %s\n", what);
    ++failures;
  }
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);
  return v;  // n, n-1, ..., 1: unsorted input on purpose
}

}  // namespace

int main() {
  using perfbench::percentile;

  // 1000 samples: p99 is the 990th value, with exactly 10 beyond it.
  {
    const auto p = percentile(iota(1000), 0.99);
    expect(p.value == 990 && p.n == 1000 && p.q == 0.99, "p99 of 1000");
  }
  // 500 samples: the 495th value would leave only 5 beyond; the rule
  // falls back to the 490th value (10 beyond), i.e. q = 0.98.
  {
    const auto p = percentile(iota(500), 0.99);
    expect(p.value == 490, "p99 of 500 falls back to 10 beyond");
    expect(std::fabs(p.q - 0.98) < 1e-12, "reported quantile of fallback");
  }
  // Ten or fewer samples: no value has ten beyond it; the minimum is
  // reported and flagged by its quantile.
  {
    const auto p = percentile(iota(8), 0.99);
    expect(p.value == 1 && p.q == 0.125, "tiny sample reports its minimum");
  }
  // The median is unaffected by the tail rule for large n.
  expect(perfbench::median(iota(101)) == 51, "median of 101");
  expect(perfbench::median(iota(100)) == 50, "median of 100 (lower)");
  expect(percentile({}, 0.5).n == 0, "empty input");

  // Windowed tail: one stalled window (all samples 1000) among four calm
  // ones does not move the median of the per-window p99s.
  {
    std::vector<double> v;
    for (int w = 0; w < 5; ++w) {
      for (int i = 1; i <= 100; ++i) v.push_back(w == 2 ? 1000 : i);
    }
    const auto p = perfbench::windowed_percentile(v, 0.99, 100);
    expect(p.value == 90 && p.n == 5, "windowed p99 ignores a stalled window");
    expect(perfbench::windowed_percentile(v, 0.99, 400).value ==
               percentile(v, 0.99).value,
           "one window degrades to the plain percentile");
  }

  // Ratios name their base: an empty base yields 0, never inf/nan.
  expect(perfbench::ratio(3, 4) == 0.75, "ratio");
  expect(perfbench::ratio(3, 0) == 0, "ratio over an empty base");
  expect(perfbench::skew(90, 100) == 0.1 && perfbench::skew(100, 90) == 0.1,
         "skew is symmetric over the larger value");

  if (failures == 0) std::printf("perfbench_selftest: ok\n");
  return failures == 0 ? 0 : 1;
}
