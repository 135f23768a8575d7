// AVX2 tier of the scan kernels (see scan_kernel.h for the design).
// This translation unit is the only one that emits AVX2 instructions;
// every function carries a target("avx2") attribute so the file builds
// without -mavx2 and the library as a whole stays baseline-ISA.
// Dispatch in scan_kernel.cc guarantees these functions are only ever
// called when util::cpu_simd() reports avx2.
//
// Only the classifiers live here (SAMPLEBYTE membership, value-sampling
// selection): the fingerprint fill is shared with the sse2 tier
// (block-split GPR lanes) because a vpgatherqq-based vector roll
// measured ~1.8x slower on the target Xeon — the two table lookups per
// step come straight from L1 and beat gather throughput.

#include "rabin/scan_kernel.h"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

namespace bytecache::rabin::detail {

// SAMPLEBYTE membership, 32 bytes per step via nibble decomposition:
// byte b = (h << 4) | l is in the set iff bit h of row[l] is set, where
// the 16 rows are split into two pshufb tables (h in 0..7 and 8..15).
__attribute__((target("avx2"))) void mask_avx2(
    const std::array<std::uint64_t, 4>& set, const std::uint8_t* p,
    std::size_t n, std::uint64_t* masks) {
  alignas(16) std::uint8_t rows0[16];
  alignas(16) std::uint8_t rows1[16];
  for (int l = 0; l < 16; ++l) {
    std::uint8_t r0 = 0, r1 = 0;
    for (int h = 0; h < 8; ++h) {
      const int b0 = (h << 4) | l;
      const int b1 = ((h + 8) << 4) | l;
      if ((set[static_cast<std::size_t>(b0) >> 6] >> (b0 & 63)) & 1u) {
        r0 |= static_cast<std::uint8_t>(1u << h);
      }
      if ((set[static_cast<std::size_t>(b1) >> 6] >> (b1 & 63)) & 1u) {
        r1 |= static_cast<std::uint8_t>(1u << h);
      }
    }
    rows0[l] = r0;
    rows1[l] = r1;
  }
  const __m256i tbl0 = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(rows0)));
  const __m256i tbl1 = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(rows1)));
  const __m256i bittbl = _mm256_broadcastsi128_si256(
      _mm_setr_epi8(1, 2, 4, 8, 16, 32, 64, -128, 1, 2, 4, 8, 16, 32, 64,
                    -128));
  const __m256i lomask = _mm256_set1_epi8(0x0F);
  const __m256i seven = _mm256_set1_epi8(7);

  std::size_t i = 0;
  std::size_t word = 0;
  for (; i + 64 <= n; i += 64, ++word) {
    std::uint64_t m = 0;
    for (int half = 0; half < 2; ++half) {
      const __m256i v = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(p + i + 32 * half));
      const __m256i l = _mm256_and_si256(v, lomask);
      const __m256i h = _mm256_and_si256(_mm256_srli_epi16(v, 4), lomask);
      const __m256i r0 = _mm256_shuffle_epi8(tbl0, l);
      const __m256i r1 = _mm256_shuffle_epi8(tbl1, l);
      const __m256i use1 = _mm256_cmpgt_epi8(h, seven);  // h >= 8
      const __m256i rows = _mm256_blendv_epi8(r0, r1, use1);
      const __m256i bit =
          _mm256_shuffle_epi8(bittbl, _mm256_and_si256(h, seven));
      const __m256i hit = _mm256_cmpeq_epi8(_mm256_and_si256(rows, bit), bit);
      const auto mm = static_cast<std::uint32_t>(_mm256_movemask_epi8(hit));
      m |= static_cast<std::uint64_t>(mm) << (32 * half);
    }
    masks[word] = m;
  }
  if (i < n) {
    std::uint64_t m = 0;
    for (std::size_t k = i; k < n; ++k) {
      const std::uint8_t b = p[k];
      const std::uint64_t bit = (set[b >> 6] >> (b & 63u)) & 1u;
      m |= bit << (k - i);
    }
    masks[word] = m;
  }
}

// Selection bits of fps[0..3]: bit k set iff (fps[k] & low) == 0.
__attribute__((target("avx2"))) inline std::uint64_t select4(
    const Fingerprint* fps, __m256i low) {
  const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(fps));
  const __m256i hit = _mm256_cmpeq_epi64(_mm256_and_si256(v, low),
                                         _mm256_setzero_si256());
  return static_cast<std::uint64_t>(
      _mm256_movemask_pd(_mm256_castsi256_pd(hit)));
}

// Value-sampling selection, 4 fingerprints per step: AND with the low-bit
// mask, compare to zero, movemask the 64-bit lanes into the mask word.
// No branch per position, so no misprediction per anchor.
__attribute__((target("avx2"))) void select_avx2(const Fingerprint* fps,
                                                 std::size_t n,
                                                 unsigned select_bits,
                                                 std::uint64_t* masks) {
  const std::uint64_t low = (std::uint64_t{1} << select_bits) - 1;
  const __m256i lowv = _mm256_set1_epi64x(static_cast<long long>(low));
  std::size_t i = 0;
  std::size_t word = 0;
  for (; i + 64 <= n; i += 64, ++word) {
    std::uint64_t m = 0;
    for (unsigned k = 0; k < 16; ++k) {
      m |= select4(fps + i + 4 * k, lowv) << (4 * k);
    }
    masks[word] = m;
  }
  if (i < n) {
    std::uint64_t m = 0;
    std::size_t k = 0;
    for (; i + k + 4 <= n; k += 4) m |= select4(fps + i + k, lowv) << k;
    for (; i + k < n; ++k) {
      m |= static_cast<std::uint64_t>((fps[i + k] & low) == 0) << k;
    }
    masks[word] = m;
  }
}

}  // namespace bytecache::rabin::detail

#endif  // defined(__x86_64__) || defined(__i386__)
