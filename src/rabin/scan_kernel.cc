#include "rabin/scan_kernel.h"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/simd.h"

namespace bytecache::rabin {

#ifdef BYTECACHE_X86
namespace detail {
// Defined in scan_kernel_avx2.cc, compiled with target("avx2") function
// attributes so the rest of the library stays baseline-ISA.
void mask_avx2(const std::array<std::uint64_t, 4>& set, const std::uint8_t* p,
               std::size_t n, std::uint64_t* masks);
void select_avx2(const Fingerprint* fps, std::size_t n, unsigned select_bits,
                 std::uint64_t* masks);
}  // namespace detail
#endif

namespace {

// ---- scalar tier (the oracle) ------------------------------------------
// Identical arithmetic to the fused template scan in window.h: w
// from-scratch pushes, then one roll per position.  Every other tier is
// equivalence-tested against this function.

void fill_scalar(const RabinTables& tables, const std::uint8_t* p,
                 std::size_t n, Fingerprint* out) {
  const std::size_t w = tables.window();
  Fingerprint fp = kEmptyFingerprint;
  for (std::size_t i = 0; i < w; ++i) fp = tables.push(fp, p[i]);
  out[0] = fp;
  for (std::size_t i = w; i < n; ++i) {
    fp = tables.roll(fp, p[i - w], p[i]);
    out[i - w + 1] = fp;
  }
}

void mask_scalar(const std::array<std::uint64_t, 4>& set,
                 const std::uint8_t* p, std::size_t n, std::uint64_t* masks) {
  const std::size_t words = (n + 63) / 64;
  for (std::size_t i = 0; i < words; ++i) masks[i] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint8_t b = p[i];
    const std::uint64_t bit = (set[b >> 6] >> (b & 63u)) & 1u;
    masks[i >> 6] |= bit << (i & 63u);
  }
}

// Branch-free: a per-position `if (selected(..))` mispredicts once per
// anchor, which cost as much as the fill itself.
void select_scalar(const Fingerprint* fps, std::size_t n, unsigned select_bits,
                   std::uint64_t* masks) {
  const std::size_t words = (n + 63) / 64;
  for (std::size_t i = 0; i < words; ++i) masks[i] = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t bit = selected(fps[i], select_bits) ? 1u : 0u;
    masks[i >> 6] |= bit << (i & 63u);
  }
}

#ifdef BYTECACHE_X86

// ---- sse2 tier ----------------------------------------------------------
// Four interleaved lanes over a block-split of the position range.  Each
// lane warms up with w from-scratch pushes at its block start, which is
// exactly the from-scratch fingerprint of that window — so every lane
// reproduces the serial scan's values bit-for-bit (no seam correction).
// The lane state lives in general-purpose registers: SSE2 (the x86-64
// baseline this tier targets) has no gather, and moving the two table
// lookups per step through xmm extract/insert costs more than the lookup
// itself.  The tier's win is purely breaking the roll latency chain.

void fill_ilp4(const RabinTables& tables, const std::uint8_t* p, std::size_t n,
               Fingerprint* out) {
  const std::size_t w = tables.window();
  const std::size_t positions = n - w + 1;
  constexpr std::size_t kLanes = 4;
  // Below ~32 positions per lane the warm-up (w extra pushes per lane)
  // eats the ILP win; fall through to the serial reference.
  if (positions < kLanes * 32) {
    fill_scalar(tables, p, n, out);
    return;
  }
  const std::size_t len = positions / kLanes;
  const std::size_t s1 = len, s2 = 2 * len, s3 = 3 * len;
  Fingerprint f0 = kEmptyFingerprint, f1 = kEmptyFingerprint;
  Fingerprint f2 = kEmptyFingerprint, f3 = kEmptyFingerprint;
  for (std::size_t j = 0; j < w; ++j) {
    f0 = tables.push(f0, p[j]);
    f1 = tables.push(f1, p[s1 + j]);
    f2 = tables.push(f2, p[s2 + j]);
    f3 = tables.push(f3, p[s3 + j]);
  }
  out[0] = f0;
  out[s1] = f1;
  out[s2] = f2;
  out[s3] = f3;
  for (std::size_t s = 1; s < len; ++s) {
    f0 = tables.roll(f0, p[s - 1], p[s + w - 1]);
    f1 = tables.roll(f1, p[s1 + s - 1], p[s1 + s + w - 1]);
    f2 = tables.roll(f2, p[s2 + s - 1], p[s2 + s + w - 1]);
    f3 = tables.roll(f3, p[s3 + s - 1], p[s3 + s + w - 1]);
    out[s] = f0;
    out[s1 + s] = f1;
    out[s2 + s] = f2;
    out[s3 + s] = f3;
  }
  // Lane 3 rolls on through the remainder positions.
  for (std::size_t i = kLanes * len; i < positions; ++i) {
    f3 = tables.roll(f3, p[i - 1], p[i + w - 1]);
    out[i] = f3;
  }
}

#endif  // BYTECACHE_X86

// ---- kernel table and dispatch -----------------------------------------

constexpr ScanKernel kScalarKernel{ScanKernelKind::kScalar, "scalar",
                                   &fill_scalar, &mask_scalar,
                                   &select_scalar};
#ifdef BYTECACHE_X86
constexpr ScanKernel kSse2Kernel{ScanKernelKind::kSse2, "sse2", &fill_ilp4,
                                 &mask_scalar, &select_scalar};
// The AVX2 tier shares fill_ilp4: a vpgatherqq vector roll was measured
// ~1.8x slower than the 4-lane GPR fill (gathers lose to scalar L1
// loads for these table sizes), so the tier's delta is the vectorized
// SAMPLEBYTE membership classification and value-sampling selection.
constexpr ScanKernel kAvx2Kernel{ScanKernelKind::kAvx2, "avx2", &fill_ilp4,
                                 &detail::mask_avx2, &detail::select_avx2};
#endif

const ScanKernel* detect() {
  // The kill switch always wins (util::simd() reports nothing under it).
  const util::SimdFeatures simd = util::simd();
  if (!simd.enabled) return &kScalarKernel;
  const ScanKernel* best = &kScalarKernel;
#ifdef BYTECACHE_X86
  best = simd.avx2 ? &kAvx2Kernel : &kSse2Kernel;
#endif
  // Explicit tier pin, clamped to what the CPU supports.
  if (const char* v = std::getenv("BYTECACHE_SCAN_KERNEL")) {
    if (std::strcmp(v, "scalar") == 0) {
      best = &kScalarKernel;
    } else if (std::strcmp(v, "sse2") == 0) {
      best = &scan_kernel(ScanKernelKind::kSse2);
    } else if (std::strcmp(v, "avx2") == 0) {
      best = &scan_kernel(ScanKernelKind::kAvx2);
    }
  }
  return best;
}

std::atomic<const ScanKernel*> g_kernel{nullptr};

}  // namespace

const ScanKernel& scan_kernel() {
  const ScanKernel* k = g_kernel.load(std::memory_order_acquire);
  if (k == nullptr) {
    // Benign race: detect() is idempotent and every thread stores a
    // pointer to the same immutable table entry.
    k = detect();
    g_kernel.store(k, std::memory_order_release);
  }
  return *k;
}

const ScanKernel& scan_kernel(ScanKernelKind kind) {
  switch (kind) {
    case ScanKernelKind::kAvx2:
#ifdef BYTECACHE_X86
      if (util::cpu_simd().avx2) return kAvx2Kernel;
#endif
      [[fallthrough]];
    case ScanKernelKind::kSse2:
#ifdef BYTECACHE_X86
      return kSse2Kernel;
#endif
      [[fallthrough]];
    case ScanKernelKind::kScalar:
    default:
      return kScalarKernel;
  }
}

bool scan_kernel_available(ScanKernelKind kind) {
  return scan_kernel(kind).kind == kind;
}

void refresh_scan_kernel() {
  util::refresh_simd();
  g_kernel.store(detect(), std::memory_order_release);
}

ScopedScanKernel::ScopedScanKernel(ScanKernelKind kind)
    : prev_(g_kernel.load(std::memory_order_acquire)) {
  g_kernel.store(&scan_kernel(kind), std::memory_order_release);
}

ScopedScanKernel::~ScopedScanKernel() {
  // prev_ may be nullptr (dispatch never ran): restoring it simply makes
  // the next scan_kernel() call re-detect.
  g_kernel.store(prev_, std::memory_order_release);
}

}  // namespace bytecache::rabin
