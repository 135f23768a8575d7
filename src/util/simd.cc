#include "util/simd.h"

#include <cstdlib>
#include <cstring>

namespace bytecache::util {

namespace detail {
std::atomic<std::uint8_t> g_simd_bits{0};
}  // namespace detail

namespace {

std::uint8_t cpu_bits() {
  std::uint8_t b = detail::kSimdProbed;
#ifdef BYTECACHE_X86
  b |= detail::kSimdEnabled;
  if (__builtin_cpu_supports("avx2")) b |= detail::kSimdAvx2;
  if (__builtin_cpu_supports("pclmul")) b |= detail::kSimdPclmul;
#endif
  return b;
}

}  // namespace

bool env_flag_set(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && v[0] != '\0' && std::strcmp(v, "0") != 0;
}

SimdFeatures cpu_simd() {
  static const std::uint8_t b = cpu_bits();
  return SimdFeatures{(b & detail::kSimdEnabled) != 0,
                      (b & detail::kSimdAvx2) != 0,
                      (b & detail::kSimdPclmul) != 0};
}

std::uint8_t detail::probe_simd_bits() {
  // Benign race: every thread computes the same bits from the same
  // environment.
  const SimdFeatures cpu = cpu_simd();
  std::uint8_t b = kSimdProbed;
  if (cpu.enabled && !env_flag_set("BYTECACHE_DISABLE_SIMD")) {
    b |= kSimdEnabled;
    if (cpu.avx2) b |= kSimdAvx2;
    if (cpu.pclmul) b |= kSimdPclmul;
  }
  g_simd_bits.store(b, std::memory_order_relaxed);
  return b;
}

void refresh_simd() { (void)detail::probe_simd_bits(); }

}  // namespace bytecache::util
