#include "util/rng.h"

#include <cmath>

namespace bytecache::util {
namespace {

inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::next_double() {
  // 53 random bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::uniform(std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t range = hi - lo + 1;
  if (range == 0) return next_u64();  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % range);
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit && limit != 0);
  return lo + v % range;
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

std::size_t Rng::zipf(std::size_t n, double s) {
  if (n <= 1) return 0;
  // Inverse-CDF over the (small) support; n is bounded by workload pools.
  double total = 0.0;
  for (std::size_t i = 1; i <= n; ++i) total += 1.0 / std::pow(double(i), s);
  double u = next_double() * total;
  double acc = 0.0;
  for (std::size_t i = 1; i <= n; ++i) {
    acc += 1.0 / std::pow(double(i), s);
    if (u < acc) return i - 1;
  }
  return n - 1;
}

Rng Rng::fork(std::uint64_t stream) const {
  std::uint64_t mix = seed_ ^ (0xA5A5A5A55A5A5A5Aull + stream * 0xD1B54A32D192ED03ull);
  return Rng(splitmix64(mix));
}

}  // namespace bytecache::util
