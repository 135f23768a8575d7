// Runtime-dispatched scan kernels: the data-plane entry point for
// filling per-position Rabin fingerprints (and SAMPLEBYTE membership
// masks) with instruction-level parallelism.
//
// The byte-serial roll loop in window.h is latency-bound: each step's
// push-table load feeds the next step's index, so a single lane runs at
// one L1 load latency per byte.  The kernels here break that chain by
// block-splitting the payload into K independent lanes, each warmed up
// with w from-scratch pushes at its block start.  The warm-up is what
// makes the split *bit-identical* to the serial scan: the rolled
// fingerprint at any position equals the from-scratch fingerprint of
// that window (an identity the equivalence tests pin), so every lane
// reproduces exactly the values the serial loop would have produced —
// there is no seam approximation to patch up.
#pragma once

//
// Tiers (runtime CPUID dispatch, scalar always compiled and always the
// oracle):
//   kScalar  the serial reference — identical code to the fused scan in
//            window.cc; what BYTECACHE_DISABLE_SIMD=1 selects.
//   kSse2    4 interleaved lanes targeting the x86-64 baseline (SSE2)
//            ISA.  The lane state intentionally lives in general-purpose
//            registers: SSE2 has no gather, so vectorizing the two table
//            lookups per step costs more in lane extract/insert traffic
//            than it saves, and the tier's entire win is breaking the
//            roll dependency chain across 4 lanes.
//   kAvx2    same block-split fill as kSse2 — a vpgatherqq-based vector
//            roll was implemented and measured ~1.8x SLOWER than the
//            4-lane GPR fill on the target Xeon (gather throughput loses
//            to two scalar L1 loads per step; see DESIGN.md §7) — plus
//            two genuinely vector classifiers: SAMPLEBYTE membership (32
//            bytes per step against the 256-bit sample bitmap with
//            nibble pshufb lookups) and value-sampling selection (4
//            fingerprints per step, compare + movemask).
//
// Value sampling and SAMPLEBYTE run as phases over the filled arrays:
// the kernel classifies positions into 64-bit mask words and window.cc
// walks the set bits with tzcnt.  MAXP's queue and the SAMPLEBYTE skip
// walk stay scalar.  Which tier runs follows util/simd.h, the dispatch
// rule the CRC-32 and GF(256) kernels share.

#include <array>
#include <cstddef>
#include <cstdint>

#include "rabin/rabin.h"

namespace bytecache::rabin {

enum class ScanKernelKind : std::uint8_t { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// One kernel tier.  Plain function pointers (no std::function — this is
/// the hot path; see tools/lint.py bc-hotpath).
struct ScanKernel {
  ScanKernelKind kind;
  const char* name;  // "scalar" | "sse2" | "avx2" (stamped into bench JSON)

  /// Writes out[i] = fingerprint of the w-byte window starting at
  /// payload position i, for every full-window position i in
  /// [0, n - w].  Requires n >= w and out sized for n - w + 1 entries.
  void (*fill_fingerprints)(const RabinTables& tables, const std::uint8_t* p,
                            std::size_t n, Fingerprint* out);

  /// Sets bit i of masks[] iff byte p[i] is in the 256-entry membership
  /// set (SAMPLEBYTE sample set).  masks must hold (n + 63) / 64 words;
  /// bits past n are written zero.
  void (*member_mask)(const std::array<std::uint64_t, 4>& set,
                      const std::uint8_t* p, std::size_t n,
                      std::uint64_t* masks);

  /// Sets bit i of masks[] iff fps[i] is value-sampling selected (its
  /// low `select_bits` bits are zero, rabin::selected).  masks must hold
  /// (n + 63) / 64 words; bits past n are written zero.
  void (*select_mask)(const Fingerprint* fps, std::size_t n,
                      unsigned select_bits, std::uint64_t* masks);
};

/// The dispatched kernel: best tier util::simd() allows, unless overridden
/// by environment (`BYTECACHE_DISABLE_SIMD=1` forces scalar;
/// `BYTECACHE_SCAN_KERNEL=scalar|sse2|avx2` pins a tier, clamped to what
/// the CPU supports).  Detection runs once and is cached; call
/// refresh_scan_kernel() after changing the environment (tests).
[[nodiscard]] const ScanKernel& scan_kernel();

/// A specific tier, for equivalence tests and benches.  Requesting an
/// unavailable tier returns the best available tier below it.
[[nodiscard]] const ScanKernel& scan_kernel(ScanKernelKind kind);

/// True if `kind` is compiled in and supported by this CPU.
[[nodiscard]] bool scan_kernel_available(ScanKernelKind kind);

/// Re-reads the environment (util::refresh_simd, so the CRC-32 and
/// GF(256) tiers follow too) and re-runs detection (after setenv in
/// tests).
void refresh_scan_kernel();

/// RAII override of the dispatched kernel for tests/benches.  Not
/// thread-safe: construct before spawning workers.
class ScopedScanKernel {
 public:
  explicit ScopedScanKernel(ScanKernelKind kind);
  ~ScopedScanKernel();
  ScopedScanKernel(const ScopedScanKernel&) = delete;
  ScopedScanKernel& operator=(const ScopedScanKernel&) = delete;

 private:
  const ScanKernel* prev_;
};

}  // namespace bytecache::rabin
