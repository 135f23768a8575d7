// GF(2^8) arithmetic for the coded-repair layer (DESIGN.md §13).
//
// The field is GF(256) under the primitive polynomial x^8+x^4+x^3+x^2+1
// (0x11D, the classic Reed-Solomon modulus).  Tables are flat constexpr
// arrays: the antilog table is doubled so gf_mul needs no mod-255
// reduction.
//
// The row kernels (gf_axpy / gf_scale) are dispatched (util/simd.h).
// Multiplication by c is linear over GF(2), so c*x = c*(x & 0x0F) ^
// c*(x & 0xF0): the AVX2 tier builds those two 16-entry product tables
// (32 gf_mul per call) and looks up 32 bytes per step with two PSHUFBs.
// The scalar reference expands c into one 256-byte product row and
// streams over it; it is the oracle and the BYTECACHE_DISABLE_SIMD=1
// fallback.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace bytecache::fec {

inline constexpr unsigned kFieldPoly = 0x11D;

namespace detail {

struct Gf256Tables {
  std::array<std::uint8_t, 256> log{};
  std::array<std::uint8_t, 512> exp{};
};

constexpr Gf256Tables make_gf256_tables() {
  Gf256Tables t{};
  unsigned x = 1;
  for (unsigned i = 0; i < 255; ++i) {
    t.exp[i] = static_cast<std::uint8_t>(x);
    t.exp[i + 255] = static_cast<std::uint8_t>(x);
    t.log[x] = static_cast<std::uint8_t>(i);
    x <<= 1;
    if ((x & 0x100) != 0) x ^= kFieldPoly;
  }
  // log a + log b <= 508, but keep the whole table defined.
  t.exp[510] = t.exp[255];
  t.exp[511] = t.exp[256];
  return t;
}

inline constexpr Gf256Tables kGf = make_gf256_tables();

}  // namespace detail

/// a * b.
[[nodiscard]] constexpr std::uint8_t gf_mul(std::uint8_t a, std::uint8_t b) {
  if (a == 0 || b == 0) return 0;
  return detail::kGf.exp[static_cast<unsigned>(detail::kGf.log[a]) +
                         detail::kGf.log[b]];
}

/// Multiplicative inverse; `a` must be nonzero.
[[nodiscard]] constexpr std::uint8_t gf_inv(std::uint8_t a) {
  return detail::kGf.exp[255u - detail::kGf.log[a]];
}

/// a / b; `b` must be nonzero.
[[nodiscard]] constexpr std::uint8_t gf_div(std::uint8_t a, std::uint8_t b) {
  if (a == 0) return 0;
  return detail::kGf.exp[255u + detail::kGf.log[a] - detail::kGf.log[b]];
}

/// dst[i] ^= c * src[i] for i < n — the Gaussian-elimination row op.
void gf_axpy(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
             std::uint8_t c);

/// buf[i] = c * buf[i] for i < n (pivot-row normalization).
void gf_scale(std::uint8_t* buf, std::size_t n, std::uint8_t c);

/// The 256-byte product-row references of gf_axpy / gf_scale.
void gf_axpy_scalar(std::uint8_t* dst, const std::uint8_t* src, std::size_t n,
                    std::uint8_t c);
void gf_scale_scalar(std::uint8_t* buf, std::size_t n, std::uint8_t c);

/// The tier gf_axpy / gf_scale dispatch to: "avx2" or "scalar".
[[nodiscard]] const char* gf_kernel();

/// Coefficient of repair row r over generation member j: the Cauchy
/// matrix 1/(x_r + y_j) with x_r = r and y_j = 0x80|j.  The index sets
/// are disjoint (r < 128 <= y_j), so every square submatrix is
/// invertible — any R distinct repair rows reconstruct any <= R missing
/// members *deterministically*, where i.i.d.-random coefficients would
/// only succeed with high probability.  The decoder never assumes the
/// construction: coefficients travel on the wire with each repair.
[[nodiscard]] constexpr std::uint8_t repair_coeff(std::uint8_t r,
                                                  std::uint8_t j) {
  return gf_inv(static_cast<std::uint8_t>(r ^ (0x80u | j)));
}

}  // namespace bytecache::fec
