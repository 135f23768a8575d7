#include <gtest/gtest.h>

#include <set>

#include "rabin/polynomial.h"
#include "rabin/rabin.h"
#include "rabin/window.h"
#include "util/rng.h"

namespace bytecache::rabin {
namespace {

using util::Bytes;
using util::Rng;

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes b(n);
  for (auto& v : b) v = static_cast<std::uint8_t>(rng.next_u64());
  return b;
}

// --------------------------------------------------------- polynomial --

TEST(Polynomial, MulXReduces) {
  // x^63 * x = x^64 == q (mod x^64 + q).
  const std::uint64_t q = kDefaultPoly;
  EXPECT_EQ(mul_x(std::uint64_t{1} << 63, q), q);
  // Low-degree values just shift.
  EXPECT_EQ(mul_x(0b101, q), 0b1010u);
}

TEST(Polynomial, MulmodIdentityAndZero) {
  const std::uint64_t q = kDefaultPoly;
  for (std::uint64_t a : {std::uint64_t{1}, std::uint64_t{0xDEADBEEF},
                          std::uint64_t{0x8000000000000001ull}}) {
    EXPECT_EQ(mulmod(a, 1, q), a);
    EXPECT_EQ(mulmod(1, a, q), a);
    EXPECT_EQ(mulmod(a, 0, q), 0u);
  }
}

TEST(Polynomial, MulmodCommutativeAndDistributive) {
  const std::uint64_t q = kDefaultPoly;
  Rng rng(1);
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = rng.next_u64();
    const std::uint64_t c = rng.next_u64();
    EXPECT_EQ(mulmod(a, b, q), mulmod(b, a, q));
    // a*(b+c) == a*b + a*c over GF(2) (+ is XOR).
    EXPECT_EQ(mulmod(a, b ^ c, q), mulmod(a, b, q) ^ mulmod(a, c, q));
  }
}

TEST(Polynomial, MulmodAssociative) {
  const std::uint64_t q = kDefaultPoly;
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t a = rng.next_u64();
    const std::uint64_t b = rng.next_u64();
    const std::uint64_t c = rng.next_u64();
    EXPECT_EQ(mulmod(mulmod(a, b, q), c, q), mulmod(a, mulmod(b, c, q), q));
  }
}

TEST(Polynomial, DefaultPolyIsIrreducible) {
  EXPECT_TRUE(is_irreducible(kDefaultPoly));
}

TEST(Polynomial, ReducibleExamplesRejected) {
  // x^64 + x^2 = x^2 (x^62 + 1): q = 4 is clearly reducible (no constant
  // term means divisible by x).
  EXPECT_FALSE(is_irreducible(0x4));
  // (x+1) divides any polynomial with an even number of terms; x^64 + 1
  // has two terms.
  EXPECT_FALSE(is_irreducible(0x1));
}

TEST(Polynomial, FindIrreducibleFindsVerifiedModuli) {
  for (std::uint64_t seed : {1ull, 99ull, 123456789ull}) {
    const std::uint64_t q = find_irreducible(seed);
    EXPECT_TRUE(is_irreducible(q)) << std::hex << q;
    EXPECT_EQ(q & 1, 1u);  // constant term present
  }
}

TEST(Polynomial, FermatPropertyForElements) {
  // In GF(2^64), a^(2^64) == a for every a.
  const std::uint64_t q = kDefaultPoly;
  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    const std::uint64_t a = rng.next_u64();
    EXPECT_EQ(pow2k(a, 64, q), a);
  }
}

// -------------------------------------------------------------- rabin --

TEST(Rabin, OfMatchesRepeatedPush) {
  RabinTables t(16);
  const Bytes data = util::to_bytes("the quick brown fox");
  Fingerprint fp = kEmptyFingerprint;
  for (std::uint8_t b : data) fp = t.push(fp, b);
  EXPECT_EQ(t.of(data), fp);
}

TEST(Rabin, RollEqualsRecompute) {
  // The fundamental rolling property: after rolling, the fingerprint
  // equals the from-scratch fingerprint of the current window.
  Rng rng(4);
  for (std::size_t w : {4u, 16u, 64u}) {
    RabinTables t(w);
    const Bytes data = random_bytes(rng, 300);
    Fingerprint fp = t.of(util::BytesView(data.data(), w));
    for (std::size_t i = w; i < data.size(); ++i) {
      fp = t.roll(fp, data[i - w], data[i]);
      const Fingerprint expect =
          t.of(util::BytesView(data.data() + i - w + 1, w));
      ASSERT_EQ(fp, expect) << "w=" << w << " i=" << i;
    }
  }
}

TEST(Rabin, FingerprintDependsOnContentNotPosition) {
  RabinTables t(16);
  const Bytes a = util::to_bytes("ABCDEFGHIJKLMNOP");
  Bytes padded = util::to_bytes("xyz");
  util::append(padded, a);
  // Same 16 bytes anywhere must give the same fingerprint.
  EXPECT_EQ(t.of(a), t.of(util::BytesView(padded.data() + 3, 16)));
}

TEST(Rabin, DistinctContentDistinctFingerprints) {
  RabinTables t(16);
  Rng rng(5);
  std::set<Fingerprint> fps;
  for (int i = 0; i < 2000; ++i) {
    fps.insert(t.of(random_bytes(rng, 16)));
  }
  EXPECT_EQ(fps.size(), 2000u);  // collisions astronomically unlikely
}

TEST(Rabin, SelectionMask) {
  EXPECT_TRUE(selected(0x10, 4));
  EXPECT_TRUE(selected(0x0, 4));
  EXPECT_FALSE(selected(0x11, 4));
  EXPECT_TRUE(selected(0x11, 0));  // zero bits selects everything
}

TEST(Rabin, SelectionRateApproximatelyTwoToMinusK) {
  RabinTables t(16);
  Rng rng(6);
  const Bytes data = random_bytes(rng, 200000);
  std::size_t hits = 0;
  std::size_t total = scan(t, data, [&](std::size_t, Fingerprint fp) {
    if (selected(fp, 4)) ++hits;
  });
  const double rate = static_cast<double>(hits) / total;
  EXPECT_NEAR(rate, 1.0 / 16, 0.01);
}

// --------------------------------------------------------------- scan --

TEST(Scan, VisitsEveryWindowPosition) {
  RabinTables t(16);
  Bytes data(100, 'x');
  std::vector<std::size_t> offsets;
  const std::size_t n =
      scan(t, data, [&](std::size_t off, Fingerprint) { offsets.push_back(off); });
  EXPECT_EQ(n, 100 - 16 + 1);
  EXPECT_EQ(offsets.front(), 0u);
  EXPECT_EQ(offsets.back(), 84u);
}

TEST(Scan, ShortPayloadYieldsNothing) {
  RabinTables t(16);
  Bytes data(15, 'x');
  EXPECT_EQ(scan(t, data, [](std::size_t, Fingerprint) {}), 0u);
}

TEST(Scan, FingerprintsMatchFromScratch) {
  RabinTables t(16);
  Rng rng(7);
  const Bytes data = random_bytes(rng, 256);
  scan(t, data, [&](std::size_t off, Fingerprint fp) {
    ASSERT_EQ(fp, t.of(util::BytesView(data.data() + off, 16)));
  });
}

TEST(SelectedAnchors, RepeatedContentGetsIdenticalAnchors) {
  RabinTables t(16);
  Rng rng(8);
  const Bytes chunk = random_bytes(rng, 400);
  Bytes doubled = chunk;
  util::append(doubled, chunk);
  const auto anchors = selected_anchors(t, doubled, 4);
  // Every anchor in the first copy must appear in the second copy at
  // offset + 400 with the same fingerprint.
  std::size_t first_copy = 0;
  std::size_t matched = 0;
  for (const Anchor& a : anchors) {
    if (a.offset + 16 <= 400) {
      ++first_copy;
      for (const Anchor& b : anchors) {
        if (b.offset == a.offset + 400 && b.fp == a.fp) {
          ++matched;
          break;
        }
      }
    }
  }
  EXPECT_GT(first_copy, 0u);
  EXPECT_EQ(matched, first_copy);
}

}  // namespace
}  // namespace bytecache::rabin
