// The one dispatch rule for the data plane's SIMD kernels (DESIGN.md
// §7.1): the Rabin scan tiers (rabin/scan_kernel.h), the CRC-32 fold
// (util/crc32.h), the GF(256) row kernels (fec/gf256.h) and the
// fingerprint index's bucket compare (cache/fingerprint_table.h) all
// ask simd() which instruction sets they may use.
//
// simd() is what CPUID reports, unless the BYTECACHE_DISABLE_SIMD kill
// switch is set (any non-empty value other than "0"): then every kernel
// runs its scalar reference.  CPUID runs once per process; the
// environment is read once and again on refresh_simd() (tests).
//
// x86 kernels are guarded by BYTECACHE_X86 and compiled with per-function
// target attributes, so the binaries stay baseline-ISA and a tier is
// purely a runtime decision.
#pragma once

#include <atomic>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#define BYTECACHE_X86 1
#endif

namespace bytecache::util {

/// True if environment variable `name` is set, non-empty and not "0".
[[nodiscard]] bool env_flag_set(const char* name);

/// Instruction sets a kernel may use.  `enabled` is false off x86 and
/// under the kill switch; the feature bits are then false too.
struct SimdFeatures {
  bool enabled = false;  // x86 SIMD at all (SSE2 and up)
  bool avx2 = false;     // 256-bit integer ops (selection, GF rows, index)
  bool pclmul = false;   // carry-less multiply (CRC-32 fold)
};

namespace detail {
inline constexpr std::uint8_t kSimdProbed = 1;
inline constexpr std::uint8_t kSimdEnabled = 2;
inline constexpr std::uint8_t kSimdAvx2 = 4;
inline constexpr std::uint8_t kSimdPclmul = 8;
extern std::atomic<std::uint8_t> g_simd_bits;  // 0 until first probe
std::uint8_t probe_simd_bits();
}  // namespace detail

/// What this CPU supports, ignoring the environment (clamps explicit
/// tier requests from tests and benches).
[[nodiscard]] SimdFeatures cpu_simd();

/// The dispatch rule: cpu_simd() with everything off under
/// BYTECACHE_DISABLE_SIMD.  One relaxed load after the first call.
[[nodiscard]] inline SimdFeatures simd() {
  std::uint8_t b = detail::g_simd_bits.load(std::memory_order_relaxed);
  if (b == 0) b = detail::probe_simd_bits();
  return SimdFeatures{(b & detail::kSimdEnabled) != 0,
                      (b & detail::kSimdAvx2) != 0,
                      (b & detail::kSimdPclmul) != 0};
}

/// Re-reads the environment (after setenv in tests).  Not thread-safe
/// against concurrent kernels changing tier mid-run: call it before
/// spawning workers.
void refresh_simd();

}  // namespace bytecache::util
