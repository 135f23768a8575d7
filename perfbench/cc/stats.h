// Order statistics and ratios shared by every workload driver.
//
// The percentile rule follows the benchmark's reporting contract: a tail
// percentile is only reported where at least ten samples lie beyond it.
// When a run has too few samples for the requested quantile, the highest
// quantile that still keeps ten samples beyond it is reported instead,
// together with the quantile actually used and the sample count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported percentile.
inline constexpr std::size_t kTailSamples = 10;

struct Percentile {
  double value = 0;
  double q = 0;        // the quantile actually reported
  std::size_t n = 0;   // samples it was taken over
};

/// Nearest-rank percentile of `v` at quantile `q` in [0, 1], capped so
/// that at least kTailSamples samples lie beyond the reported one (for
/// n <= kTailSamples no sample qualifies and the minimum is reported).
/// Takes `v` by value: it is partially reordered.
inline Percentile percentile(std::vector<double> v, double q) {
  Percentile p;
  p.n = v.size();
  if (v.empty()) return p;
  const std::size_t n = v.size();
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(n));
  if (static_cast<double>(rank) < q * static_cast<double>(n)) ++rank;
  std::size_t idx = rank == 0 ? 0 : rank - 1;
  const std::size_t cap = n > kTailSamples ? n - 1 - kTailSamples : 0;
  idx = std::min(idx, cap);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  p.value = v[idx];
  p.q = static_cast<double>(idx + 1) / static_cast<double>(n);
  return p;
}

inline double median(std::vector<double> v) {
  return percentile(std::move(v), 0.5).value;
}

/// Median over consecutive windows of `window` samples (in recording
/// order; a short tail joins the last window) of each window's
/// percentile at `q`.  An open-loop tail measured this way is robust to
/// the few windows a host-level stall lands in.  The reported n is the
/// number of windows; fewer than two windows degrade to percentile().
inline Percentile windowed_percentile(const std::vector<double>& v, double q,
                                      std::size_t window) {
  const std::size_t windows = window == 0 ? 0 : v.size() / window;
  if (windows < 2) return percentile(v, q);
  std::vector<double> per_window;
  Percentile last;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto begin = v.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto end = w + 1 == windows
                         ? v.end()
                         : begin + static_cast<std::ptrdiff_t>(window);
    last = percentile({begin, end}, q);
    per_window.push_back(last.value);
  }
  Percentile p;
  p.value = median(std::move(per_window));
  p.q = last.q;
  p.n = windows;
  return p;
}

/// num / den, or 0 when the base is empty (a ratio always names its base;
/// an empty base means the quantity did not occur).
inline double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Relative difference of two medians, |a - b| / max(a, b).
inline double skew(double a, double b) {
  const double hi = std::max(a, b);
  return hi > 0 ? (a > b ? a - b : b - a) / hi : 0;
}

}  // namespace perfbench
