// Randomized equivalence tests for the zero-allocation data plane.
//
// The fast paths (inlined scan, flat fingerprint table, pooled packet
// store, per-codec scratch buffers) are drop-in replacements for simpler
// reference implementations; these tests pin each one against its
// reference on random inputs so a behavioural drift cannot hide behind a
// performance win:
//   - template scan vs full recomputation,
//   - FlatMap64 / FingerprintTable vs std::unordered_map, and the
//     packed-slot form vs the used-byte form and a textbook layout,
//   - word-wide match expansion vs a byte-at-a-time oracle,
//   - each selection scheme vs a naive reference across a parameter
//     sweep (maxp_p including powers of two, select_bits, SAMPLEBYTE
//     period/skip) — parameter-dependent paths like the MAXP ring sizing
//     only misbehave at non-default values,
//   - workspace-based anchor computation vs the by-value form,
//   - encoder bit-determinism across independent instances, and
//   - the eviction purge keeping the fingerprint table free of stale
//     entries under heavy churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/cache_tier.h"
#include "util/flat_map.h"
#include "core/anchors.h"
#include "core/decoder.h"
#include "core/encoder.h"
#include "core/matcher.h"
#include "core/policies.h"
#include "tests/testutil.h"
#include "util/rng.h"

namespace bytecache {
namespace {

using testutil::test_encoder;
using testutil::random_bytes;
using testutil::segment_stream;
using util::Bytes;
using util::Rng;

struct OffsetFp {
  std::size_t offset;
  rabin::Fingerprint fp;
};

// ----------------------------------------------------------- scanning --

TEST(ScanEquiv, TemplateVsErasedVsRecompute) {
  const rabin::RabinTables tables(16);
  Rng rng(testutil::test_seed(101));
  for (int trial = 0; trial < 50; ++trial) {
    // Cover the degenerate sizes: empty, below, at, and above the window.
    const std::size_t n = trial < 4 ? static_cast<std::size_t>(trial * 8)
                                    : rng.uniform(1, 2000);
    const Bytes payload = random_bytes(rng, n);

    std::vector<OffsetFp> inlined;
    const std::size_t count_inlined =
        rabin::scan(tables, payload, [&](std::size_t off, rabin::Fingerprint fp) {
          inlined.push_back({off, fp});
        });

    EXPECT_EQ(inlined.size(), count_inlined);
    EXPECT_EQ(count_inlined, n < 16 ? 0 : n - 16 + 1);
    // Every reported fingerprint equals a from-scratch recomputation of
    // the window it covers.
    for (const OffsetFp& a : inlined) {
      EXPECT_EQ(a.fp, tables.of(util::BytesView(payload).subspan(a.offset, 16)))
          << "offset " << a.offset;
    }
  }
}

// ---------------------------------------------------------- flat table --

TEST(FlatMapEquiv, RandomOpsMatchUnorderedMap) {
  util::FlatMap64<std::uint64_t> flat;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(testutil::test_seed(104));
  for (int op = 0; op < 20000; ++op) {
    // A small key pool (with the low bits zeroed, like real selected
    // fingerprints) forces overwrites, hits, and probe-chain collisions.
    const std::uint64_t key = rng.uniform(0, 300) << 4;
    switch (rng.uniform(0, 3)) {
      case 0:
      case 1: {  // put (biased: tables grow)
        const std::uint64_t value = rng.next_u64();
        flat.put(key, value);
        ref[key] = value;
        break;
      }
      case 2: {  // find
        const std::uint64_t* v = flat.find(key);
        auto it = ref.find(key);
        ASSERT_EQ(v != nullptr, it != ref.end());
        if (v != nullptr) {
          ASSERT_EQ(*v, it->second);
        }
        break;
      }
      case 3: {  // erase
        ASSERT_EQ(flat.erase(key), ref.erase(key) > 0);
        break;
      }
    }
    ASSERT_EQ(flat.size(), ref.size());
  }
  // Full-content sweep: every surviving pair matches the reference.
  std::size_t visited = 0;
  flat.for_each([&](std::uint64_t key, std::uint64_t value) {
    ++visited;
    auto it = ref.find(key);
    ASSERT_NE(it, ref.end()) << "key " << key << " not in reference";
    ASSERT_EQ(value, it->second);
  });
  EXPECT_EQ(visited, ref.size());
}

// erase_if is the one-probe form of find-then-erase: the same erasures
// in the same order must leave the same slot layout, which for_each's
// visiting order exposes.  Both maps are sized past 2 MiB of slots, so
// they sit on the huge-page allocation path.
TEST(FlatMapEquiv, EraseIfKeepsTheFindThenEraseLayout) {
  util::FlatMap64<std::uint64_t> one_probe;
  util::FlatMap64<std::uint64_t> two_probe;
  one_probe.reserve(150000);
  two_probe.reserve(150000);
  ASSERT_GE(one_probe.capacity() * 3 * sizeof(std::uint64_t),
            util::kHugePageBytes);
  Rng rng(testutil::test_seed(106));
  for (int op = 0; op < 200000; ++op) {
    const std::uint64_t key = rng.uniform(0, 60000) << 4;
    const std::uint64_t value = rng.uniform(0, 3);
    if (rng.uniform(0, 2) != 0) {
      one_probe.put(key, value);
      two_probe.put(key, value);
      continue;
    }
    // Erase only entries holding `value`, as the purge erases only the
    // entries its packet still owns.
    const bool erased = one_probe.erase_if(
        key, [&](const std::uint64_t& v) { return v == value; });
    const std::uint64_t* found = two_probe.find(key);
    const bool match = found != nullptr && *found == value;
    if (match) two_probe.erase(key);
    ASSERT_EQ(erased, match) << "op " << op;
  }
  using Pairs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  const auto visit = [](const util::FlatMap64<std::uint64_t>& map) {
    Pairs out;
    map.for_each(
        [&](std::uint64_t k, std::uint64_t v) { out.emplace_back(k, v); });
    return out;
  };
  EXPECT_EQ(visit(one_probe), visit(two_probe));
  EXPECT_EQ(one_probe.size(), two_probe.size());
}

/// Buckets of four slots with a saturating overflow count each,
/// written out independently over a flat slot array: the layout
/// FlatMap64 promises in either slot form.  A key's home bucket is
/// util::mix64(key) & (buckets - 1).  An insert takes the lowest free
/// slot of the first bucket from home that has one and counts itself
/// into every full bucket it passes; a lookup gives up at the first
/// bucket whose count is zero; an erase empties the slot and uncounts
/// the buckets the key passed.  A count at 255 never moves again.
class ReferenceLayout {
 public:
  static constexpr std::size_t kWays = 4;

  explicit ReferenceLayout(std::size_t capacity)
      : slots_(capacity),
        counts_(capacity / kWays),
        mask_(capacity / kWays - 1) {}

  void put(std::uint64_t key, std::uint64_t value) {
    if (Slot* s = locate(key)) {
      s->value = value;
      return;
    }
    for (std::size_t b = home(key);; b = (b + 1) & mask_) {
      for (std::size_t w = 0; w < kWays; ++w) {
        Slot& s = slots_[b * kWays + w];
        if (!s.used) {
          s = Slot{key, value, true};
          ++size_;
          return;
        }
      }
      if (counts_[b] < 255) ++counts_[b];
    }
  }

  template <typename Pred>
  bool erase_if(std::uint64_t key, Pred&& pred) {
    Slot* s = locate(key);
    if (s == nullptr || !pred(s->value)) return false;
    s->used = false;
    --size_;
    const auto bucket = static_cast<std::size_t>(s - slots_.data()) / kWays;
    for (std::size_t b = home(key); b != bucket; b = (b + 1) & mask_) {
      if (counts_[b] < 255) --counts_[b];
    }
    return true;
  }

  [[nodiscard]] std::size_t size() const { return size_; }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.used) fn(s.key, s.value);
    }
  }

 private:
  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t value = 0;
    bool used = false;
  };

  [[nodiscard]] std::size_t home(std::uint64_t key) const {
    return util::mix64(key) & mask_;
  }
  /// The slot holding `key`, or nullptr.
  [[nodiscard]] Slot* locate(std::uint64_t key) {
    for (std::size_t b = home(key);; b = (b + 1) & mask_) {
      for (std::size_t w = 0; w < kWays; ++w) {
        Slot& s = slots_[b * kWays + w];
        if (s.used && s.key == key) return &s;
      }
      if (counts_[b] == 0) return nullptr;
    }
  }

  std::vector<Slot> slots_;
  std::vector<int> counts_;
  std::size_t mask_;
  std::size_t size_ = 0;
};

// The fingerprint index's 64-byte bucket marks emptiness with a zero
// packed {id, offset} word instead of a used bit.  Driven through the
// same puts and owner-predicate erases as the purge does them, it must
// leave the same slots filled in the same order as the used-bit form
// and as the textbook layout, at the index's real size (4 MiB of
// buckets, on the huge-page path) and occupancy.
TEST(FlatMapEquiv, PackedSlotKeepsLayout) {
  util::FlatMap64<std::uint64_t, util::EmptySlot::kZeroValue> packed;
  util::FlatMap64<std::uint64_t> used;
  packed.reserve(140000);
  used.reserve(140000);
  ASSERT_EQ(packed.capacity(), used.capacity());
  ASSERT_EQ(ReferenceLayout::kWays, util::kBucketSlots);
  ASSERT_GE(packed.capacity() * 2 * sizeof(std::uint64_t),
            util::kHugePageBytes);
  ReferenceLayout reference(packed.capacity());
  Rng rng(testutil::test_seed(113));
  // 160k distinct keys stay under the 3/4 load bound, so no map grows.
  for (int op = 0; op < 400000; ++op) {
    const std::uint64_t key = rng.uniform(0, 160000) << 4;
    const std::uint64_t id = rng.uniform(1, 64);
    if (rng.uniform(0, 2) != 0) {
      const std::uint64_t word = id << 16 | rng.uniform(0, 1459);
      packed.put(key, word);
      used.put(key, word);
      reference.put(key, word);
    } else {
      const auto owned_by = [id](std::uint64_t word) {
        return word >> 16 == id;
      };
      const bool erased = packed.erase_if(key, owned_by);
      ASSERT_EQ(used.erase_if(key, owned_by), erased) << "op " << op;
      ASSERT_EQ(reference.erase_if(key, owned_by), erased) << "op " << op;
    }
    ASSERT_EQ(packed.size(), used.size());
    ASSERT_EQ(packed.size(), reference.size());
  }
  EXPECT_GT(packed.size(), 100000u);
  EXPECT_EQ(packed.capacity(), used.capacity());
  using Pairs = std::vector<std::pair<std::uint64_t, std::uint64_t>>;
  const auto visit = [](const auto& map) {
    Pairs out;
    map.for_each(
        [&](std::uint64_t k, std::uint64_t v) { out.emplace_back(k, v); });
    return out;
  };
  const Pairs order = visit(packed);
  EXPECT_EQ(order, visit(used));
  EXPECT_EQ(order, visit(reference));
  packed.clear();
  EXPECT_EQ(packed.size(), 0u);
  EXPECT_TRUE(visit(packed).empty());
}

/// Drives `map` through inserts, overwrites, erases and lookups of a
/// crowd of more than 255 keys sharing one home bucket, mixed with keys
/// spread over the table, checking every step against
/// std::unordered_map.  The crowd overflows its home bucket's count to
/// the 255 cap, so after it thins out lookups through that bucket rely
/// on the saturated count to keep probing.
template <typename Map>
void crowd_one_bucket(Map& map, std::uint64_t seed) {
  map.reserve(3000);
  const std::size_t capacity = map.capacity();
  const std::size_t bucket_mask = capacity / util::kBucketSlots - 1;
  Rng rng(seed);
  std::vector<std::uint64_t> crowd;
  while (crowd.size() < 300) {
    const std::uint64_t key = rng.next_u64() << 4;
    if ((util::mix64(key) & bucket_mask) == 7) crowd.push_back(key);
  }
  std::vector<std::uint64_t> spread;
  for (int i = 0; i < 1500; ++i) spread.push_back(rng.next_u64() << 4);

  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  const auto put = [&](std::uint64_t key) {
    const std::uint64_t value = rng.uniform(1, 1u << 20);  // never zero
    map.put(key, value);
    ref[key] = value;
  };
  const auto check = [&](std::uint64_t key) {
    const std::uint64_t* v = map.find(key);
    const auto it = ref.find(key);
    ASSERT_EQ(v != nullptr, it != ref.end()) << "key " << key;
    if (v != nullptr) {
      ASSERT_EQ(*v, it->second) << "key " << key;
    }
  };
  for (const std::uint64_t key : crowd) put(key);
  for (const std::uint64_t key : crowd) check(key);
  for (int op = 0; op < 30000; ++op) {
    const std::uint64_t key = rng.uniform(0, 2) == 0
                                  ? crowd[rng.uniform(0, crowd.size() - 1)]
                                  : spread[rng.uniform(0, spread.size() - 1)];
    switch (rng.uniform(0, 3)) {
      case 0:
        put(key);
        break;
      case 1:
      case 2:  // erase-biased: the crowd keeps thinning behind its count
        ASSERT_EQ(map.erase(key), ref.erase(key) > 0) << "op " << op;
        break;
      case 3:
        check(key);
        break;
    }
    ASSERT_EQ(map.size(), ref.size());
  }
  for (const std::uint64_t key : crowd) check(key);
  for (const std::uint64_t key : spread) check(key);
  std::size_t visited = 0;
  map.for_each([&](std::uint64_t key, std::uint64_t value) {
    ++visited;
    const auto it = ref.find(key);
    ASSERT_NE(it, ref.end()) << "key " << key << " not in reference";
    ASSERT_EQ(value, it->second);
  });
  EXPECT_EQ(visited, ref.size());
  // A rehash would have reset every count: the table must not have grown.
  EXPECT_EQ(map.capacity(), capacity);
}

TEST(FlatMapEquiv, SaturatedOverflowCountNeverMisses) {
  util::FlatMap64<std::uint64_t, util::EmptySlot::kZeroValue> packed;
  util::FlatMap64<std::uint64_t> used;
  crowd_one_bucket(packed, testutil::test_seed(118));
  crowd_one_bucket(used, testutil::test_seed(118));
}

// ------------------------------------------------------ match expansion --

/// The byte-at-a-time expansion the word-wide expand_match replaced.
std::optional<core::Match> expand_match_bytewise(
    util::BytesView pnew, std::size_t new_off, util::BytesView stored,
    std::size_t stored_off, std::size_t window, std::size_t min_new_begin) {
  if (new_off + window > pnew.size() || stored_off + window > stored.size()) {
    return std::nullopt;
  }
  for (std::size_t i = 0; i < window; ++i) {
    if (pnew[new_off + i] != stored[stored_off + i]) return std::nullopt;
  }
  std::size_t nb = new_off;
  std::size_t sb = stored_off;
  while (nb > min_new_begin && sb > 0 && pnew[nb - 1] == stored[sb - 1]) {
    --nb;
    --sb;
  }
  std::size_t ne = new_off + window;
  std::size_t se = stored_off + window;
  while (ne < pnew.size() && se < stored.size() && pnew[ne] == stored[se]) {
    ++ne;
    ++se;
  }
  return core::Match{nb, sb, ne - nb};
}

/// expand_match and the oracle agree; returns the match (if any).
std::optional<core::Match> expect_same_match(
    util::BytesView pnew, std::size_t new_off, util::BytesView stored,
    std::size_t stored_off, std::size_t window, std::size_t min_new_begin) {
  const auto got = core::expand_match(pnew, new_off, stored, stored_off,
                                      window, min_new_begin);
  const auto want = expand_match_bytewise(pnew, new_off, stored, stored_off,
                                          window, min_new_begin);
  EXPECT_EQ(got.has_value(), want.has_value());
  if (got && want) {
    EXPECT_EQ(got->new_begin, want->new_begin);
    EXPECT_EQ(got->stored_begin, want->stored_begin);
    EXPECT_EQ(got->length, want->length);
  }
  return got;
}

constexpr std::size_t kMatchWindow = 16;

// A stored copy of the new payload's bytes around the window with one
// byte changed `left` bytes before the window and one `right` bytes
// after it: expansion must stop exactly there, whatever the two
// windows' alignment.
TEST(MatchEquiv, MismatchAtEveryDistance) {
  Rng rng(testutil::test_seed(114));
  constexpr std::size_t kMargin = 24;
  for (std::size_t new_shift = 0; new_shift < 8; ++new_shift) {
    for (std::size_t stored_shift = 0; stored_shift < 8; stored_shift += 3) {
      const std::size_t new_off = kMargin + new_shift;
      const std::size_t stored_off = kMargin + stored_shift;
      const Bytes pnew = random_bytes(rng, new_off + kMatchWindow + kMargin);
      for (std::size_t left = 0; left <= 16; ++left) {
        for (std::size_t right = 0; right <= 16; ++right) {
          SCOPED_TRACE(testing::Message()
                       << "new_shift " << new_shift << " stored_shift "
                       << stored_shift << " left " << left << " right "
                       << right);
          Bytes stored(stored_off + kMatchWindow + kMargin);
          std::copy(pnew.begin() + static_cast<std::ptrdiff_t>(
                                       new_off - kMargin),
                    pnew.end(),
                    stored.begin() + static_cast<std::ptrdiff_t>(
                                         stored_off - kMargin));
          stored[stored_off - 1 - left] ^= 0x5A;
          stored[stored_off + kMatchWindow + right] ^= 0xA5;
          const auto m = expect_same_match(pnew, new_off, stored, stored_off,
                                           kMatchWindow, 0);
          ASSERT_TRUE(m.has_value());
          EXPECT_EQ(m->new_begin, new_off - left);
          EXPECT_EQ(m->stored_begin, stored_off - left);
          EXPECT_EQ(m->length, left + kMatchWindow + right);
        }
      }
    }
  }
}

// The left bound stops expansion that would otherwise run to the
// stored start, at every distance from the window (and past it).
TEST(MatchEquiv, MinNewBeginAtEveryDistance) {
  Rng rng(testutil::test_seed(115));
  const Bytes stored = random_bytes(rng, 61);
  for (std::size_t shift = 0; shift < 8; ++shift) {
    // pnew[i] == stored[i - 3]: unbounded, expansion would reach the
    // stored start, 9 + shift bytes left of the window.
    Bytes pnew = random_bytes(rng, 3);
    pnew.insert(pnew.end(), stored.begin(), stored.end());
    const std::size_t new_off = 12 + shift;
    const std::size_t stored_off = new_off - 3;
    for (std::size_t d = 0; d <= 9; ++d) {
      SCOPED_TRACE(testing::Message() << "shift " << shift << " d " << d);
      const auto m = expect_same_match(pnew, new_off, stored, stored_off,
                                       kMatchWindow, new_off - d);
      ASSERT_TRUE(m.has_value());
      EXPECT_EQ(m->new_begin, new_off - d);
    }
    (void)expect_same_match(pnew, new_off, stored, stored_off, kMatchWindow,
                            new_off + 1);
  }
}

// Equal payloads of every length pair up to 40 bytes: expansion runs to
// whichever end comes first, through tails of every length mod 8, with
// the stored payload shorter, equal or longer.
TEST(MatchEquiv, EndsOfEveryLength) {
  Rng rng(testutil::test_seed(116));
  const Bytes bytes = random_bytes(rng, 48);
  for (std::size_t new_len = kMatchWindow; new_len <= 40; ++new_len) {
    for (std::size_t stored_len = kMatchWindow; stored_len <= 40;
         ++stored_len) {
      const util::BytesView pnew(bytes.data(), new_len);
      const util::BytesView stored(bytes.data(), stored_len);
      for (std::size_t off = 0;
           off + kMatchWindow <= std::min(new_len, stored_len); off += 3) {
        SCOPED_TRACE(testing::Message() << "new_len " << new_len
                                        << " stored_len " << stored_len
                                        << " off " << off);
        const auto m =
            expect_same_match(pnew, off, stored, off, kMatchWindow, 0);
        ASSERT_TRUE(m.has_value());
        EXPECT_EQ(m->length, std::min(new_len, stored_len));
      }
    }
  }
}

// Random payloads sharing a region at random places, with random
// bounds and windows (collisions and out-of-range windows included).
TEST(MatchEquiv, RandomRegionsMatchOracle) {
  Rng rng(testutil::test_seed(117));
  for (int iter = 0; iter < 20000; ++iter) {
    Bytes pnew = random_bytes(rng, rng.uniform(16, 200));
    Bytes stored = random_bytes(rng, rng.uniform(16, 200));
    const std::size_t len =
        rng.uniform(0, std::min(pnew.size(), stored.size()));
    const std::size_t at_new = rng.uniform(0, pnew.size() - len);
    const std::size_t at_stored = rng.uniform(0, stored.size() - len);
    std::copy_n(pnew.begin() + static_cast<std::ptrdiff_t>(at_new), len,
                stored.begin() + static_cast<std::ptrdiff_t>(at_stored));
    // Low-entropy bytes make runs of accidental equality beyond the
    // shared region common.
    if (iter % 4 == 0) {
      for (auto& b : pnew) b &= 1;
      for (auto& b : stored) b &= 1;
    }
    const std::size_t window = rng.uniform(1, 16);
    // Mostly inside the shared region, sometimes just before it.
    const std::size_t back =
        std::min<std::size_t>({rng.uniform(0, 2), at_new, at_stored});
    const std::size_t into = rng.uniform(0, len);
    const std::size_t new_off = at_new + into - back;
    const std::size_t stored_off = at_stored + into - back;
    const std::size_t min_new_begin = rng.uniform(0, pnew.size());
    SCOPED_TRACE(testing::Message() << "iter " << iter);
    (void)expect_same_match(pnew, new_off, stored, stored_off, window,
                            min_new_begin);
    if (testing::Test::HasFailure()) return;
  }
}

TEST(FingerprintTableEquiv, RandomOpsMatchReferenceModel) {
  cache::FingerprintTable table;
  std::unordered_map<std::uint64_t, cache::FpEntry> ref;
  Rng rng(testutil::test_seed(105));
  for (int op = 0; op < 20000; ++op) {
    const std::uint64_t fp = rng.uniform(0, 400) << 4;
    switch (rng.uniform(0, 4)) {
      case 0:
      case 1: {  // put
        cache::FpEntry e;
        e.packet_id = rng.uniform(1, 50);
        e.offset = static_cast<std::uint16_t>(rng.uniform(0, 1459));
        table.put(fp, e);
        ref[fp] = e;
        break;
      }
      case 2: {  // get
        auto got = table.get(fp);
        auto it = ref.find(fp);
        ASSERT_EQ(got.has_value(), it != ref.end());
        if (got) {
          ASSERT_EQ(got->packet_id, it->second.packet_id);
          ASSERT_EQ(got->offset, it->second.offset);
        }
        break;
      }
      case 3: {  // erase
        table.erase(fp);
        ref.erase(fp);
        break;
      }
      case 4: {  // erase_if_owner: only removes a matching owner
        const std::uint64_t owner = rng.uniform(1, 50);
        auto it = ref.find(fp);
        const bool expect =
            it != ref.end() && it->second.packet_id == owner;
        ASSERT_EQ(table.erase_if_owner(fp, owner), expect);
        if (expect) ref.erase(it);
        break;
      }
    }
    ASSERT_EQ(table.size(), ref.size());
  }
}

// ---------------------------------------------------- selection sweeps --

/// Brute-force MAXP reference: for every window of `p` consecutive
/// positions, take the rightmost maximum-fingerprint position by direct
/// argmax over recomputed fingerprints (O(n*p); no monotonic queue, so
/// it shares no machinery with the implementation under test).
std::vector<rabin::Anchor> maxp_reference(const rabin::RabinTables& tables,
                                          util::BytesView payload,
                                          std::size_t p) {
  std::vector<rabin::Anchor> out;
  const std::size_t w = tables.window();
  if (payload.size() < w || p == 0) return out;
  std::vector<rabin::Fingerprint> fps;
  for (std::size_t i = 0; i + w <= payload.size(); ++i) {
    fps.push_back(tables.of(payload.subspan(i, w)));
  }
  std::size_t last = fps.size();  // sentinel: no anchor emitted yet
  for (std::size_t end = p - 1; end < fps.size(); ++end) {
    std::size_t best = end + 1 - p;
    for (std::size_t j = best + 1; j <= end; ++j) {
      if (fps[j] >= fps[best]) best = j;  // >=: rightmost wins ties
    }
    if (best != last) {
      last = best;
      out.push_back(rabin::Anchor{static_cast<std::uint16_t>(best), fps[best]});
    }
  }
  return out;
}

// Sweeps p across powers of two (where a ring sized bit_ceil(p) == p
// would be overwritten by the transient p+1-th candidate), their
// neighbours, and the default 31.
TEST(MaxpEquiv, MatchesBruteForceReferenceAcrossP) {
  const rabin::RabinTables tables(16);
  Rng rng(testutil::test_seed(110));
  rabin::MaxpScratch scratch;  // reused across p values, like the codecs
  std::vector<rabin::Anchor> out;
  for (const std::size_t p : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{4}, std::size_t{5}, std::size_t{7},
                              std::size_t{8}, std::size_t{9}, std::size_t{15},
                              std::size_t{16}, std::size_t{17},
                              std::size_t{31}, std::size_t{32},
                              std::size_t{33}, std::size_t{64},
                              std::size_t{65}}) {
    for (int trial = 0; trial < 20; ++trial) {
      // Narrow byte alphabet: repeated values produce fingerprint ties,
      // exercising the rightmost-wins rule.
      std::size_t n = rng.uniform(1, 1460);
      Bytes payload(n);
      for (auto& b : payload) {
        b = static_cast<std::uint8_t>(rng.uniform(0, trial % 2 ? 3 : 255));
      }
      const auto expected = maxp_reference(tables, payload, p);
      rabin::selected_anchors_maxp_into(tables, payload, p, out, scratch);
      ASSERT_EQ(out, expected) << "p=" << p << " n=" << n;
      ASSERT_EQ(out, rabin::selected_anchors_maxp(tables, payload, p))
          << "p=" << p << " n=" << n;
    }
  }
}

TEST(ValueSamplingEquiv, MatchesRecomputeReferenceAcrossSelectBits) {
  const rabin::RabinTables tables(16);
  Rng rng(testutil::test_seed(111));
  for (const unsigned bits : {0u, 1u, 2u, 4u, 8u, 12u}) {
    for (int trial = 0; trial < 10; ++trial) {
      const Bytes payload = random_bytes(rng, rng.uniform(1, 1460));
      std::vector<rabin::Anchor> expected;
      for (std::size_t i = 0; i + 16 <= payload.size(); ++i) {
        const auto fp = tables.of(util::BytesView(payload).subspan(i, 16));
        if (rabin::selected(fp, bits)) {
          expected.push_back(rabin::Anchor{static_cast<std::uint16_t>(i), fp});
        }
      }
      ASSERT_EQ(rabin::selected_anchors(tables, payload, bits), expected)
          << "bits=" << bits << " n=" << payload.size();
    }
  }
}

TEST(SampleByteEquiv, MatchesNaiveReferenceAcrossPeriodAndSkip) {
  const rabin::RabinTables tables(16);
  Rng rng(testutil::test_seed(112));
  for (const unsigned period : {1u, 2u, 4u, 16u, 64u, 256u}) {
    for (const std::size_t skip :
         {std::size_t{0}, std::size_t{1}, std::size_t{8}, std::size_t{16},
          std::size_t{300}}) {
      for (int trial = 0; trial < 5; ++trial) {
        const Bytes payload = random_bytes(rng, rng.uniform(1, 1460));
        // Naive reference: per-byte hash + division, no membership bitmap.
        std::vector<rabin::Anchor> expected;
        for (std::size_t i = 0; i + 16 <= payload.size();) {
          std::uint64_t state = payload[i];
          if (util::splitmix64(state) % period == 0) {
            expected.push_back(rabin::Anchor{
                static_cast<std::uint16_t>(i),
                tables.of(util::BytesView(payload).subspan(i, 16))});
            i += skip > 0 ? skip : 1;
          } else {
            ++i;
          }
        }
        ASSERT_EQ(
            rabin::selected_anchors_samplebyte(tables, payload, period, skip),
            expected)
            << "period=" << period << " skip=" << skip;
      }
    }
  }
}

// ------------------------------------------------------------- anchors --

TEST(AnchorEquiv, WorkspaceMatchesByValueForEverySelectMode) {
  const rabin::RabinTables tables(16);
  Rng rng(testutil::test_seed(106));
  core::AnchorWorkspace ws;  // deliberately reused across payloads/modes
  for (int trial = 0; trial < 30; ++trial) {
    const Bytes payload = random_bytes(rng, rng.uniform(1, 1460));
    for (core::SelectMode mode :
         {core::SelectMode::kValueSampling, core::SelectMode::kMaxp,
          core::SelectMode::kSampleByte}) {
      core::DreParams params;
      params.select_mode = mode;
      // Sweep away from the defaults (select_bits=4, maxp_p=31,
      // period=16/skip=8) so parameter-dependent paths — notably the
      // power-of-two MAXP ring — are hit too.
      for (const unsigned variant : {0u, 1u, 2u}) {
        params.select_bits = 2 + 2 * variant;
        params.maxp_p = std::size_t{8} << variant;  // 8, 16, 32: powers of two
        params.samplebyte_period = 4u << variant;
        params.samplebyte_skip = variant * 8;
        const auto by_value = core::compute_anchors(tables, payload, params);
        const auto& via_ws =
            core::compute_anchors(tables, payload, params, ws);
        EXPECT_EQ(by_value, via_ws)
            << "mode " << static_cast<int>(mode) << " variant " << variant
            << " payload " << payload.size();
      }
    }
  }
}

// ------------------------------------------------------ codec identity --

// Two independent encoder instances fed the same stream must emit
// bit-identical packets (scratch-buffer reuse cannot leak state between
// packets or instances), and a fresh decoder must reconstruct the
// original bytes exactly.
TEST(CodecEquiv, EncodingBitIdenticalAcrossInstances) {
  Rng rng(testutil::test_seed(107));
  // A redundant stream: random chunks, many repeated, so real regions and
  // multi-region packets are produced.
  Bytes object;
  std::vector<Bytes> chunks;
  for (int i = 0; i < 8; ++i) {
    chunks.push_back(random_bytes(rng, 400 + 80 * static_cast<std::size_t>(i)));
  }
  for (int i = 0; i < 120; ++i) {
    const Bytes& c = chunks[rng.zipf(chunks.size(), 1.0)];
    object.insert(object.end(), c.begin(), c.end());
  }

  auto enc_a = test_encoder(core::PolicyKind::kNaive);
  auto enc_b = test_encoder(core::PolicyKind::kNaive);
  core::Decoder dec{core::DreParams{}};
  std::size_t encoded_packets = 0;
  for (const auto& pkt : segment_stream(object)) {
    const Bytes original = pkt->payload;
    auto copy_a = packet::make_packet(pkt->ip.src, pkt->ip.dst,
                                      pkt->proto(), Bytes(original));
    auto copy_b = packet::make_packet(pkt->ip.src, pkt->ip.dst,
                                      pkt->proto(), Bytes(original));
    const auto info_a = enc_a.process(*copy_a);
    const auto info_b = enc_b.process(*copy_b);
    ASSERT_EQ(info_a.encoded, info_b.encoded);
    ASSERT_EQ(copy_a->payload, copy_b->payload);
    encoded_packets += info_a.encoded ? 1 : 0;
    const auto dinfo = dec.process(*copy_a);
    ASSERT_FALSE(core::is_drop(dinfo.status));
    ASSERT_EQ(copy_a->payload, original);
  }
  EXPECT_GT(encoded_packets, 0u);  // the stream must exercise encoding
  enc_a.audit();
  dec.audit();
}

// ------------------------------------------------------ eviction purge --

/// Counts fingerprint entries whose packet is gone, independent of the
/// build's BC_AUDIT setting (the audit() form is a no-op in plain
/// Release).
std::size_t stale_entries(const cache::CacheTier& cache) {
  std::size_t stale = 0;
  cache.table().for_each(
      [&](rabin::Fingerprint, const cache::FpEntry& entry) {
        if (cache.store().peek(entry.packet_id) == nullptr) ++stale;
      });
  return stale;
}

TEST(EvictionPurge, NoStaleEntriesUnderChurn) {
  const rabin::RabinTables tables(16);
  cache::CacheTier cache(
      cache::CacheConfig{.l1_bytes = 8 * 1024});  // constant eviction
  Rng rng(testutil::test_seed(108));
  for (int i = 0; i < 400; ++i) {
    const Bytes payload = random_bytes(rng, rng.uniform(64, 1460));
    const auto anchors = rabin::selected_anchors(tables, payload, 4);
    cache::PacketMeta meta;
    meta.stream_index = static_cast<std::uint64_t>(i);
    cache.update(payload, anchors, meta);
    ASSERT_EQ(stale_entries(cache), 0u) << "after update " << i;
  }
  EXPECT_GT(cache.store().evictions(), 0u);
  EXPECT_GT(cache.stats().fingerprints_purged, 0u);
  EXPECT_EQ(cache.stats().stale_hits, 0u);
  cache.audit();  // BC_AUDIT asserts stale == 0 in audit-enabled builds
}

TEST(EvictionPurge, BoundedEncoderDecoderStayInSync) {
  core::DreParams params;
  cache::CacheConfig cc;
  cc.l1_bytes = 64 * 1024;  // far smaller than the stream
  auto enc = test_encoder(core::PolicyKind::kNaive, params, cc);
  core::Decoder dec{params, cc};
  Rng rng(testutil::test_seed(109));
  Bytes object;
  const Bytes chunk = random_bytes(rng, 4000);
  for (int i = 0; i < 80; ++i) {
    const Bytes noise = random_bytes(rng, rng.uniform(100, 3000));
    object.insert(object.end(), noise.begin(), noise.end());
    object.insert(object.end(), chunk.begin(), chunk.end());
  }
  for (const auto& pkt : segment_stream(object)) {
    const Bytes original = pkt->payload;
    enc.process(*pkt);
    const auto dinfo = dec.process(*pkt);
    ASSERT_FALSE(core::is_drop(dinfo.status));
    ASSERT_EQ(pkt->payload, original);
  }
  EXPECT_GT(enc.cache().store().evictions(), 0u);
  EXPECT_EQ(stale_entries(enc.cache()), 0u);
  EXPECT_EQ(stale_entries(dec.cache()), 0u);
  enc.audit();
  dec.audit();
}

}  // namespace
}  // namespace bytecache
