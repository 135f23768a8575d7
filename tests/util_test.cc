#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <thread>

#include "util/bytes.h"
#include "util/crc32.h"
#include "util/hexdump.h"
#include "util/huge_pages.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/seqcmp.h"
#include "util/spsc_ring.h"
#include "util/worker.h"

namespace bytecache::util {
namespace {

// ------------------------------------------------------------- bytes.h --

TEST(Bytes, RoundTripScalars) {
  Bytes b;
  put_u8(b, 0xAB);
  put_u16(b, 0xCDEF);
  put_u32(b, 0x01234567);
  put_u64(b, 0x89ABCDEF01234567ull);
  ASSERT_EQ(b.size(), 15u);
  std::size_t off = 0;
  EXPECT_EQ(get_u8(b, off), 0xAB);
  EXPECT_EQ(get_u16(b, off), 0xCDEF);
  EXPECT_EQ(get_u32(b, off), 0x01234567u);
  EXPECT_EQ(get_u64(b, off), 0x89ABCDEF01234567ull);
  EXPECT_EQ(off, b.size());
}

TEST(Bytes, BigEndianLayout) {
  Bytes b;
  put_u16(b, 0x1234);
  EXPECT_EQ(b[0], 0x12);
  EXPECT_EQ(b[1], 0x34);
  put_u32(b, 0xA1B2C3D4);
  EXPECT_EQ(b[2], 0xA1);
  EXPECT_EQ(b[5], 0xD4);
}

TEST(Bytes, StringConversions) {
  const Bytes b = to_bytes("hello");
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(to_string(b), "hello");
}

TEST(Bytes, AppendConcatenates) {
  Bytes a = to_bytes("foo");
  append(a, to_bytes("bar"));
  EXPECT_EQ(to_string(a), "foobar");
}

// ------------------------------------------------------------- crc32.h --

TEST(Crc32, KnownVector) {
  // CRC32("123456789") = 0xCBF43926 (classic check value).
  EXPECT_EQ(crc32(to_bytes("123456789")), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32({}), 0u); }

TEST(Crc32, SensitiveToEveryByte) {
  Rng rng(7);
  Bytes data;
  for (int i = 0; i < 256; ++i) {
    data.push_back(static_cast<std::uint8_t>(rng.next_u64()));
  }
  const std::uint32_t base = crc32(data);
  for (std::size_t i = 0; i < data.size(); i += 13) {
    Bytes mutated = data;
    mutated[i] ^= 0x40;
    EXPECT_NE(crc32(mutated), base) << "flip at " << i;
  }
}

TEST(Crc32, SeedContinuation) {
  const Bytes whole = to_bytes("hello world");
  const Bytes a = to_bytes("hello ");
  const Bytes b = to_bytes("world");
  EXPECT_EQ(crc32(b, crc32(a)), crc32(whole));
}

// --------------------------------------------------------------- rng.h --

// ------------------------------------------------------ huge_pages.h --

TEST(HugePages, LargeArraysAreHugePageAligned) {
  HugePageAllocator<std::uint64_t> alloc;
  const std::size_t big = kHugePageBytes / sizeof(std::uint64_t) + 1;
  std::uint64_t* p = alloc.allocate(big);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kHugePageBytes, 0u);
  p[0] = 1;
  p[big - 1] = 2;  // the rounded block covers the whole array
  EXPECT_EQ(p[0] + p[big - 1], 3u);
  alloc.deallocate(p, big);
  // Small arrays take the ordinary heap path.
  std::uint64_t* q = alloc.allocate(16);
  q[15] = 7;
  EXPECT_EQ(q[15], 7u);
  alloc.deallocate(q, 16);
  // A small array of an over-aligned type still gets its alignment (a
  // cache-line bucket is read with aligned vector loads).
  struct alignas(64) Line {
    std::uint64_t words[8];
  };
  HugePageAllocator<Line> lines;
  for (const std::size_t n : {std::size_t{1}, std::size_t{3},
                              std::size_t{2048}}) {
    Line* l = lines.allocate(n);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(l) % alignof(Line), 0u)
        << n << " lines";
    l[n - 1].words[7] = 9;
    EXPECT_EQ(l[n - 1].words[7], 9u);
    lines.deallocate(l, n);
  }
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, UniformBounds) {
  Rng rng(4);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t v = rng.uniform(10, 15);
    EXPECT_GE(v, 10u);
    EXPECT_LE(v, 15u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all values hit
}

TEST(Rng, UniformSingleValue) {
  Rng rng(5);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform(7, 7), 7u);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, ChanceApproximatesProbability) {
  Rng rng(7);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ZipfSkewsTowardLowRanks) {
  Rng rng(9);
  std::map<std::size_t, int> counts;
  for (int i = 0; i < 20000; ++i) ++counts[rng.zipf(100, 1.0)];
  EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(Rng, ZipfDegenerate) {
  Rng rng(10);
  EXPECT_EQ(rng.zipf(1, 1.0), 0u);
  EXPECT_EQ(rng.zipf(0, 1.0), 0u);
}

TEST(Rng, ForkIndependentButDeterministic) {
  Rng a(11), b(11);
  Rng fa = a.fork(1), fb = b.fork(1), fc = a.fork(2);
  EXPECT_EQ(fa.next_u64(), fb.next_u64());
  Rng fa2 = a.fork(1);
  EXPECT_NE(fa2.next_u64(), fc.next_u64());
}

// ------------------------------------------------------------ seqcmp.h --

TEST(SeqCmp, Basic) {
  EXPECT_TRUE(seq_lt(1, 2));
  EXPECT_FALSE(seq_lt(2, 1));
  EXPECT_FALSE(seq_lt(2, 2));
  EXPECT_TRUE(seq_le(2, 2));
  EXPECT_TRUE(seq_gt(5, 3));
  EXPECT_TRUE(seq_ge(5, 5));
}

TEST(SeqCmp, Wraparound) {
  const std::uint32_t near_max = 0xFFFFFF00u;
  const std::uint32_t wrapped = 0x00000100u;
  EXPECT_TRUE(seq_lt(near_max, wrapped));   // wrapped is "after"
  EXPECT_FALSE(seq_lt(wrapped, near_max));
  EXPECT_EQ(seq_diff(wrapped, near_max), 0x200u);
}

TEST(SeqCmp, ExactWrapBoundary) {
  // The last and first sequence numbers are adjacent across the 2^32 wrap.
  EXPECT_TRUE(seq_lt(0xFFFFFFFFu, 0x00000000u));
  EXPECT_TRUE(seq_le(0xFFFFFFFFu, 0x00000000u));
  EXPECT_TRUE(seq_gt(0x00000000u, 0xFFFFFFFFu));
  EXPECT_TRUE(seq_ge(0x00000000u, 0xFFFFFFFFu));
  EXPECT_EQ(seq_diff(0x00000000u, 0xFFFFFFFFu), 1u);
}

TEST(SeqCmp, HalfRangeAntipode) {
  // At exactly 2^31 apart the signed distance is INT32_MIN from either
  // direction, so each endpoint compares "before" the other.  Real TCP
  // windows are far below 2^31 bytes, which is why the idiom is safe; the
  // test pins the behaviour so a refactor cannot silently change it.
  EXPECT_TRUE(seq_lt(0u, 0x80000000u));
  EXPECT_TRUE(seq_lt(0x80000000u, 0u));
  // One short of the antipode orders normally from both sides.
  EXPECT_TRUE(seq_lt(0u, 0x7FFFFFFFu));
  EXPECT_FALSE(seq_lt(0x7FFFFFFFu, 0u));
  EXPECT_TRUE(seq_gt(0x80000001u, 0u) == seq_lt(0u, 0x80000001u));
}

TEST(SeqCmp, DiffStraddlingWrapMatchesStreamDistance) {
  // A flight of 0x20 bytes straddling the wrap: end - start must equal
  // the 64-bit stream distance regardless of where the wrap falls.
  for (std::uint32_t start = 0xFFFFFFE0u; start != 0x10u; start += 8) {
    const std::uint32_t end = start + 0x20u;  // wraps for early starts
    EXPECT_EQ(seq_diff(end, start), 0x20u) << "start=" << start;
    EXPECT_TRUE(seq_lt(start, end)) << "start=" << start;
  }
  // Zero distance is reflexive everywhere, including at the wrap.
  EXPECT_EQ(seq_diff(0xFFFFFFFFu, 0xFFFFFFFFu), 0u);
  EXPECT_EQ(seq_diff(0u, 0u), 0u);
}

TEST(SeqCmp, ConstexprUsableInStaticAssertions) {
  static_assert(seq_lt(0xFFFFFFFFu, 0u), "wrap-adjacent ordering");
  static_assert(seq_diff(5u, 0xFFFFFFFBu) == 10u, "wrap-straddling diff");
  static_assert(seq_ge(0u, 0xFFFFFF00u), "wrapped sequence is after");
  SUCCEED();
}

// ----------------------------------------------------------- hexdump.h --

TEST(Hexdump, FormatsRows) {
  const Bytes data = to_bytes("0123456789abcdefXYZ");
  const std::string dump = hexdump(data);
  EXPECT_NE(dump.find("00000000"), std::string::npos);
  EXPECT_NE(dump.find("|0123456789abcdef|"), std::string::npos);
  EXPECT_NE(dump.find("XYZ"), std::string::npos);
}

TEST(Hexdump, TruncatesAtMax) {
  Bytes data(1000, 0x41);
  const std::string dump = hexdump(data, 32);
  EXPECT_NE(dump.find("more bytes"), std::string::npos);
}

TEST(Hexdump, ToHex) {
  EXPECT_EQ(to_hex(Bytes{0xDE, 0xAD, 0xBE, 0xEF}), "deadbeef");
  EXPECT_EQ(to_hex({}), "");
}

// ----------------------------------------------------------- logging.h --

TEST(Logging, LevelGate) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  BC_DEBUG() << "this must not be evaluated at error level";
  set_log_level(before);
}

// --------------------------------------------------------- spsc_ring.h --

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
  EXPECT_EQ(SpscRing<int>(1024).capacity(), 1024u);
}

TEST(SpscRing, FifoWithWraparoundAndFullEmptyEdges) {
  SpscRing<int> ring(4);
  // Single-threaded test: this thread plays both ring roles
  // (util/thread_annotations.h — the claims are purely static).
  ScopedRole producer(ring.producer_role);
  ScopedRole consumer(ring.consumer_role);
  int v = 0;
  EXPECT_FALSE(ring.try_pop(v));  // empty
  // Push/pop far past the capacity so the indices wrap the slot array.
  int next_in = 0;
  int next_out = 0;
  for (int round = 0; round < 50; ++round) {
    while (true) {
      v = next_in;
      if (!ring.try_push(v)) break;
      ++next_in;
    }
    EXPECT_EQ(ring.size(), ring.capacity());  // full
    v = next_in;
    EXPECT_FALSE(ring.try_push(v));
    EXPECT_EQ(v, next_in);  // a failed push leaves the value untouched
    while (ring.try_pop(v)) {
      EXPECT_EQ(v, next_out);
      ++next_out;
    }
    EXPECT_TRUE(ring.empty());
    ring.audit();
  }
  EXPECT_EQ(next_out, next_in);
}

TEST(SpscRing, MovesOwnershipThrough) {
  SpscRing<std::unique_ptr<int>> ring(8);
  ScopedRole producer(ring.producer_role);
  ScopedRole consumer(ring.consumer_role);
  auto p = std::make_unique<int>(41);
  ASSERT_TRUE(ring.try_push(p));
  EXPECT_EQ(p, nullptr);  // moved in
  std::unique_ptr<int> out;
  ASSERT_TRUE(ring.try_pop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 41);
}

TEST(SpscRing, CrossThreadTransferPreservesOrder) {
  // One producer thread, one consumer thread (this one), a deliberately
  // tiny ring: every value must arrive exactly once, in order.
  constexpr std::uint64_t kCount = 200000;
  SpscRing<std::uint64_t> ring(16);
  std::thread producer([&ring] {
    ScopedRole producer_role(ring.producer_role);
    Backoff backoff;
    for (std::uint64_t i = 0; i < kCount; ++i) {
      std::uint64_t v = i;
      while (!ring.try_push(v)) backoff.pause();
      backoff.reset();
    }
  });
  ScopedRole consumer_role(ring.consumer_role);
  Backoff backoff;
  for (std::uint64_t expect = 0; expect < kCount; ++expect) {
    std::uint64_t v = 0;
    while (!ring.try_pop(v)) backoff.pause();
    backoff.reset();
    ASSERT_EQ(v, expect);
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
  ring.audit();
}

}  // namespace
}  // namespace bytecache::util
