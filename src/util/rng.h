// Deterministic pseudo-random number generation for simulation.
//
// Every stochastic component (loss models, workload generators, experiment
// trials) takes an explicit seed so that runs are exactly reproducible.
// The generator is xoshiro256** seeded via SplitMix64 — fast, good quality,
// and independent of the standard library's unspecified distributions
// (we implement our own so results are identical across platforms).
#pragma once

#include <cstdint>

namespace bytecache::util {

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** PRNG with platform-independent distribution helpers.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi);

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool chance(double p);

  /// Zipf-like rank in [0, n): probability ~ 1/(rank+1)^s.  Used by the
  /// workload generators to model temporal locality of web content.
  std::size_t zipf(std::size_t n, double s);

  /// Derives an independent child generator (stable function of this
  /// generator's seed and `stream`, does not consume state).
  [[nodiscard]] Rng fork(std::uint64_t stream) const;

 private:
  std::uint64_t s_[4];
  std::uint64_t seed_;
};

}  // namespace bytecache::util
