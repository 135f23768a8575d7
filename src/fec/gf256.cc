#include "fec/gf256.h"

#include "util/simd.h"

#ifdef BYTECACHE_X86
#include <immintrin.h>
#endif

namespace bytecache::fec {

void gf_axpy_scalar(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                    std::uint8_t c) {
  if (c == 0 || n == 0) return;
  if (c == 1) {
    for (std::size_t i = 0; i < n; ++i) dst[i] ^= src[i];
    return;
  }
  // One 256-byte product row turns the two-table lookup per byte into a
  // single indexed load; the row stays cache-resident across the sweep.
  std::uint8_t row[256];
  for (unsigned v = 0; v < 256; ++v) {
    row[v] = gf_mul(c, static_cast<std::uint8_t>(v));
  }
  for (std::size_t i = 0; i < n; ++i) dst[i] ^= row[src[i]];
}

void gf_scale_scalar(std::uint8_t* buf, std::size_t n, std::uint8_t c) {
  if (c == 1 || n == 0) return;
  std::uint8_t row[256];
  for (unsigned v = 0; v < 256; ++v) {
    row[v] = gf_mul(c, static_cast<std::uint8_t>(v));
  }
  for (std::size_t i = 0; i < n; ++i) buf[i] = row[buf[i]];
}

namespace {

#ifdef BYTECACHE_X86

/// The split-nibble product tables of c: lo[v] = c*v, hi[v] = c*(v<<4).
struct NibbleTables {
  alignas(16) std::uint8_t lo[16];
  alignas(16) std::uint8_t hi[16];

  explicit NibbleTables(std::uint8_t c) {
    for (unsigned v = 0; v < 16; ++v) {
      lo[v] = gf_mul(c, static_cast<std::uint8_t>(v));
      hi[v] = gf_mul(c, static_cast<std::uint8_t>(v << 4));
    }
  }

  [[nodiscard]] std::uint8_t mul(std::uint8_t x) const {
    return lo[x & 0x0F] ^ hi[x >> 4];
  }
};

/// c * x for 32 bytes: two PSHUFB lookups, one per nibble.
__attribute__((target("avx2"))) inline __m256i mul32(__m256i x, __m256i lo,
                                                     __m256i hi,
                                                     __m256i nibble) {
  const __m256i l = _mm256_and_si256(x, nibble);
  const __m256i h = _mm256_and_si256(_mm256_srli_epi16(x, 4), nibble);
  return _mm256_xor_si256(_mm256_shuffle_epi8(lo, l),
                          _mm256_shuffle_epi8(hi, h));
}

__attribute__((target("avx2"))) void axpy_avx2(std::uint8_t* dst,
                                               const std::uint8_t* src,
                                               std::size_t n,
                                               std::uint8_t c) {
  const NibbleTables t(c);
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo)));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi)));
  const __m256i nibble = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    auto* d = reinterpret_cast<__m256i*>(dst + i);
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_si256(
        d, _mm256_xor_si256(_mm256_loadu_si256(d), mul32(x, lo, hi, nibble)));
  }
  for (; i < n; ++i) dst[i] ^= t.mul(src[i]);
}

__attribute__((target("avx2"))) void scale_avx2(std::uint8_t* buf,
                                                std::size_t n,
                                                std::uint8_t c) {
  const NibbleTables t(c);
  const __m256i lo = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.lo)));
  const __m256i hi = _mm256_broadcastsi128_si256(
      _mm_load_si128(reinterpret_cast<const __m128i*>(t.hi)));
  const __m256i nibble = _mm256_set1_epi8(0x0F);
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    auto* d = reinterpret_cast<__m256i*>(buf + i);
    _mm256_storeu_si256(d, mul32(_mm256_loadu_si256(d), lo, hi, nibble));
  }
  for (; i < n; ++i) buf[i] = t.mul(buf[i]);
}

#endif  // BYTECACHE_X86

}  // namespace

void gf_axpy(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
             std::uint8_t c) {
#ifdef BYTECACHE_X86
  if (c > 1 && n != 0 && util::simd().avx2) {
    axpy_avx2(dst, src, n, c);
    return;
  }
#endif
  gf_axpy_scalar(dst, src, n, c);
}

void gf_scale(std::uint8_t* buf, std::size_t n, std::uint8_t c) {
#ifdef BYTECACHE_X86
  if (c != 1 && n != 0 && util::simd().avx2) {
    scale_avx2(buf, n, c);
    return;
  }
#endif
  gf_scale_scalar(buf, n, c);
}

const char* gf_kernel() { return util::simd().avx2 ? "avx2" : "scalar"; }

}  // namespace bytecache::fec
