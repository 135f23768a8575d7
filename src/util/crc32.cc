#include "util/crc32.h"

#include <array>

#include "util/simd.h"

#ifdef BYTECACHE_X86
#include <immintrin.h>
#endif

namespace bytecache::util {
namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;

// Slice-by-8 (Intel's technique): kTables[0] is the classic byte table;
// kTables[k][i] advances a byte through k further zero bytes, so eight
// table lookups absorb eight input bytes per step instead of one.  The
// resulting CRC is bit-identical to the bytewise loop — the decoder
// profile showed the bytewise version eating ~44% of end-to-end codec
// time (it runs over every payload at both gateways).
constexpr std::array<std::array<std::uint32_t, 256>, 8> make_tables() {
  std::array<std::array<std::uint32_t, 256>, 8> t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int b = 0; b < 8; ++b) {
      c = (c & 1u) ? (c >> 1) ^ kPoly : (c >> 1);
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr auto kTables = make_tables();

/// Little-endian 32-bit load composed from bytes (endian- and
/// alignment-safe; compilers fold it into a single load where legal).
constexpr std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

/// Advances the raw (pre-inverted) CRC register `c` over n bytes.
std::uint32_t slice8(std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  while (n >= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    c = kTables[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  }
  return c;
}

#ifdef BYTECACHE_X86

// The fold needs at least four 16-byte lanes.
constexpr std::size_t kFoldMin = 64;

#define BC_CRC_TARGET __attribute__((target("pclmul,sse4.1")))

BC_CRC_TARGET inline __m128i load(const std::uint8_t* q) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(q));
}

// Moves lane x forward by the distance its multiplier pair k encodes.
BC_CRC_TARGET inline __m128i fold(__m128i x, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(x, k, 0x00),
                       _mm_clmulepi64_si128(x, k, 0x11));
}

// Carry-less multiply fold (Gopal et al., "Fast CRC Computation for
// Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009), in the
// shape of zlib/Chromium's crc32_simd: four 128-bit lanes fold 64 bytes
// per step, the lanes fold into one, single 16-byte folds follow, then
// 128 -> 64 -> 32 bits by a Barrett reduction.  The constants are the
// bit-reflected x^k mod P values for P = 0x104C11DB7 (reflected
// 0xEDB88320) from the paper's appendix.  Advances the raw register `c`
// over n bytes; requires n >= 64 and n a multiple of 16.
BC_CRC_TARGET std::uint32_t fold_pclmul(std::uint32_t c, const std::uint8_t* p,
                                        std::size_t n) {
  const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
  const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
  const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
  const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

  __m128i x1 = _mm_xor_si128(load(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i x2 = load(p + 16);
  __m128i x3 = load(p + 32);
  __m128i x4 = load(p + 48);
  p += 64;
  n -= 64;
  while (n >= 64) {
    x1 = _mm_xor_si128(fold(x1, k1k2), load(p));
    x2 = _mm_xor_si128(fold(x2, k1k2), load(p + 16));
    x3 = _mm_xor_si128(fold(x3, k1k2), load(p + 32));
    x4 = _mm_xor_si128(fold(x4, k1k2), load(p + 48));
    p += 64;
    n -= 64;
  }
  x1 = _mm_xor_si128(fold(x1, k3k4), x2);
  x1 = _mm_xor_si128(fold(x1, k3k4), x3);
  x1 = _mm_xor_si128(fold(x1, k3k4), x4);
  while (n >= 16) {
    x1 = _mm_xor_si128(fold(x1, k3k4), load(p));
    p += 16;
    n -= 16;
  }

  // 128 -> 64 bits.
  __m128i x = _mm_xor_si128(_mm_srli_si128(x1, 8),
                            _mm_clmulepi64_si128(x1, k3k4, 0x10));
  x = _mm_xor_si128(_mm_srli_si128(x, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(x, low32), k5, 0x00));
  // Barrett reduction to 32 bits.
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x, low32), poly, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
  x = _mm_xor_si128(x, t);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x, 1));
}

#undef BC_CRC_TARGET

#endif  // BYTECACHE_X86

}  // namespace

std::uint32_t crc32_scalar(BytesView data, std::uint32_t seed) {
  return ~slice8(~seed, data.data(), data.size());
}

std::uint32_t crc32(BytesView data, std::uint32_t seed) {
  std::uint32_t c = ~seed;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
#ifdef BYTECACHE_X86
  if (n >= kFoldMin && simd().pclmul) {
    const std::size_t folded = n & ~std::size_t{15};
    c = fold_pclmul(c, p, folded);
    p += folded;
    n -= folded;
  }
#endif
  return ~slice8(c, p, n);
}

const char* crc32_kernel() { return simd().pclmul ? "pclmul" : "slice8"; }

}  // namespace bytecache::util
