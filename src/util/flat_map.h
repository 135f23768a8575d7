// Open-addressing hash map with 64-bit keys, shared by the data-plane
// cache structures (FingerprintTable, PacketStore's id index) and the
// per-connection tables on the encode path (flow and host-pair records).
// Unlike std::unordered_map it allocates nothing per insert and chases
// no pointer per probe.
//
// Entries sit in buckets of four slots (four keys, then four values), so
// a fingerprint-index probe reads one 64-byte line.  The home bucket
// comes from a mixed hash: Rabin fingerprints have their low
// `select_bits` bits zero, so the raw key must never index.  Each bucket
// keeps a saturating overflow count (folly's F14 rule).  An insert takes
// the first free slot of the first bucket from home that has one and
// counts itself into every full bucket it passes.  A lookup moves past a
// bucket only while its count is nonzero.  An erase clears the slot and
// uncounts the buckets its key passed; nothing shifts.  A count at 255
// stays there: lookups probe further but never miss.  Capacity is a
// power of two, the load factor at most 3/4.  Bucket arrays of 2 MiB or
// more sit on huge pages (util/huge_pages.h).
//
// EmptySlot picks how a slot says it is empty: a used bit per slot, or
// (for a map whose values are never zero, the index's packed {id,
// offset} word) a zero value, which makes the bucket exactly one cache
// line.  Both forms run the same placement code, so the same operations
// leave the same layout and for_each order.  Batched callers hash a key
// once and call the *_hashed forms with their own bucket compare
// (FingerprintTable's AVX2 one picks the slots ScalarKeyMatch picks).
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/huge_pages.h"

namespace bytecache::util {

/// Murmur3-style 64-bit finalizer: full-avalanche, so clustered or
/// low-bit-zero keys spread uniformly over the bucket array.
[[nodiscard]] inline std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDull;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ull;
  x ^= x >> 33;
  return x;
}

/// How a FlatMap64 slot says it is empty.
enum class EmptySlot : std::uint8_t {
  kUsedByte,   // a flag bit beside the value (any value may be stored)
  kZeroValue,  // an all-zero value: the map never stores one
};

/// Slots per FlatMap64 bucket.
inline constexpr unsigned kBucketSlots = 4;

/// Buckets no larger than a cache line are aligned to one, so a probe
/// never straddles two.
template <typename V>
inline constexpr std::size_t kUsedBucketAlign =
    kBucketSlots * (sizeof(std::uint64_t) + sizeof(V)) < 64
        ? 64
        : (alignof(V) > alignof(std::uint64_t) ? alignof(V)
                                                : alignof(std::uint64_t));

/// A bucket of a FlatMap64<V, E>: keys, values and the emptiness rule.
/// occupied() is a mask with bit i set when slot i holds an entry.
template <typename V, EmptySlot E>
struct alignas(kUsedBucketAlign<V>) FlatBucket {
  std::uint64_t keys[kBucketSlots] = {};
  V values[kBucketSlots] = {};
  std::uint8_t used = 0;

  [[nodiscard]] unsigned occupied() const { return used; }
  void occupy(unsigned i) { used = static_cast<std::uint8_t>(used | 1u << i); }
  void vacate(unsigned i) {
    used = static_cast<std::uint8_t>(used & ~(1u << i));
  }
};

template <typename V>
struct alignas(64) FlatBucket<V, EmptySlot::kZeroValue> {
  static_assert(sizeof(V) == sizeof(std::uint64_t) &&
                    std::is_trivially_copyable_v<V>,
                "a zero-value slot holds one 64-bit word");

  std::uint64_t keys[kBucketSlots] = {};
  V values[kBucketSlots] = {};

  [[nodiscard]] unsigned occupied() const {
    unsigned mask = 0;
    for (unsigned i = 0; i < kBucketSlots; ++i) {
      mask |= unsigned{std::bit_cast<std::uint64_t>(values[i]) != 0} << i;
    }
    return mask;
  }
  void occupy(unsigned) {}  // the caller's nonzero value marks it
  void vacate(unsigned i) { values[i] = V{}; }
};

/// The bucket compare every single-key operation uses.  keys() is the
/// mask of occupied slots holding `key` (at most one bit), free() the
/// mask of empty slots; a vector compare must return the same masks.
struct ScalarKeyMatch {
  template <typename Bucket>
  [[nodiscard]] static unsigned keys(const Bucket& b, std::uint64_t key) {
    unsigned mask = 0;
    for (unsigned i = 0; i < kBucketSlots; ++i) {
      mask |= unsigned{b.keys[i] == key} << i;
    }
    return mask & b.occupied();
  }
  template <typename Bucket>
  [[nodiscard]] static unsigned free(const Bucket& b) {
    return ~b.occupied() & ((1u << kBucketSlots) - 1);
  }
};

/// Under EmptySlot::kZeroValue every stored value must be nonzero, and
/// the slot upsert() inserts must be given one before the next call.
template <typename V, EmptySlot E = EmptySlot::kUsedByte>
class FlatMap64 {
 public:
  using Bucket = FlatBucket<V, E>;

  FlatMap64() { rehash(kMinCapacity); }

  /// Pre-sizes the table so `n` entries fit without growing.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * 3 / 4 < n) cap <<= 1;
    if (cap > capacity()) rehash(cap);
  }

  /// Grows the table, if needed, so `n` more entries fit: the 3/4 rule
  /// one insert at a time applies with n = 1.  Batched inserts call it
  /// once, then upsert_hashed() each key.
  void make_room(std::size_t n) {
    if ((size_ + n) * 4 > capacity() * 3) reserve(size_ + n);
  }

  /// Inserts or overwrites the value for `key`.
  void put(std::uint64_t key, const V& value) {
    bool inserted = false;
    upsert(key, inserted) = value;
  }

  /// The value slot for `key`, inserted value-initialized if absent;
  /// `inserted` says which.  One probe for read-modify-write callers
  /// (FingerprintTable's owner counts).  Stable only until the next
  /// put/upsert/erase.
  V& upsert(std::uint64_t key, bool& inserted) {
    make_room(1);
    return upsert_hashed<ScalarKeyMatch>(mix64(key), key, inserted);
  }

  /// upsert() for callers that do not care whether `key` was new.
  V& upsert(std::uint64_t key) {
    bool inserted = false;
    return upsert(key, inserted);
  }

  /// Pointer to the value for `key`, or nullptr if absent.  Stable only
  /// until the next put/erase.
  [[nodiscard]] const V* find(std::uint64_t key) const {
    return find_hashed<ScalarKeyMatch>(mix64(key), key);
  }
  [[nodiscard]] V* find(std::uint64_t key) {
    return const_cast<V*>(static_cast<const FlatMap64*>(this)->find(key));
  }

  /// Hints the cache to pull `key`'s home bucket: a later find(key)
  /// scans that bucket first, so issuing this d keys ahead hides the
  /// bucket-array miss behind useful work (the batched probe path, see
  /// FingerprintTable::probe_batch).  A key that overflowed its home
  /// bucket may still touch a cold neighbour.
  void prefetch(std::uint64_t key) const { prefetch_hashed(mix64(key)); }

  /// Removes `key` if present.  Returns true if an entry was removed.
  bool erase(std::uint64_t key) {
    return erase_if(key, [](const V&) { return true; });
  }

  /// Removes `key` if present and `pred(value)` holds, in one probe.
  /// Returns true if an entry was removed.
  template <typename Pred>
  bool erase_if(std::uint64_t key, Pred&& pred) {
    return erase_if_hashed<ScalarKeyMatch>(mix64(key), key, pred);
  }

  // ---- Hashed forms: `hash` is mix64(key), computed once by the caller;
  // Match is a bucket compare with ScalarKeyMatch's contract.

  template <typename Match>
  [[nodiscard]] const V* find_hashed(std::uint64_t hash,
                                     std::uint64_t key) const {
    std::size_t b = hash & mask_;
    for (std::size_t seen = 0; seen <= mask_; ++seen) {
      const Bucket& bucket = buckets_[b];
      if (const unsigned hit = Match::keys(bucket, key)) {
        return &bucket.values[std::countr_zero(hit)];
      }
      if (overflow_[b] == 0) return nullptr;
      b = (b + 1) & mask_;
    }
    return nullptr;
  }

  /// upsert() without the growth check: make_room() must have been
  /// called for this insert.
  template <typename Match>
  V& upsert_hashed(std::uint64_t hash, std::uint64_t key, bool& inserted) {
    if (const V* v = find_hashed<Match>(hash, key)) {
      inserted = false;
      return const_cast<V&>(*v);
    }
    inserted = true;
    return insert_new<Match>(hash, key);
  }

  template <typename Match, typename Pred>
  bool erase_if_hashed(std::uint64_t hash, std::uint64_t key, Pred&& pred) {
    const std::size_t home = hash & mask_;
    std::size_t b = home;
    for (std::size_t seen = 0; seen <= mask_; ++seen) {
      Bucket& bucket = buckets_[b];
      if (const unsigned hit = Match::keys(bucket, key)) {
        const auto i = static_cast<unsigned>(std::countr_zero(hit));
        if (!pred(static_cast<const V&>(bucket.values[i]))) return false;
        bucket.vacate(i);
        --size_;
        for (std::size_t p = home; p != b; p = (p + 1) & mask_) {
          if (overflow_[p] != kSaturated) --overflow_[p];
        }
        return true;
      }
      if (overflow_[b] == 0) return false;
      b = (b + 1) & mask_;
    }
    return false;
  }

  /// prefetch() of a precomputed hash: the home bucket and its count.
  void prefetch_hashed(std::uint64_t hash) const {
    const std::size_t b = hash & mask_;
    __builtin_prefetch(&buckets_[b], /*rw=*/0, /*locality=*/1);
    __builtin_prefetch(&overflow_[b], /*rw=*/0, /*locality=*/1);
  }

  void clear() {
    for (Bucket& b : buckets_) {
      for (unsigned i = 0; i < kBucketSlots; ++i) b.vacate(i);
    }
    std::fill(overflow_.begin(), overflow_.end(), std::uint8_t{0});
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  /// Slots, not buckets.
  [[nodiscard]] std::size_t capacity() const {
    return buckets_.size() * kBucketSlots;
  }

  /// Visits every (key, value) pair: buckets in order, slots in order
  /// within each.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Bucket& b : buckets_) {
      for (unsigned m = b.occupied(); m != 0; m &= m - 1) {
        const auto i = static_cast<unsigned>(std::countr_zero(m));
        fn(b.keys[i], b.values[i]);
      }
    }
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;
  static constexpr std::uint8_t kSaturated = 255;

  using Buckets = std::vector<Bucket, HugePageAllocator<Bucket>>;

  /// Places `key`, known absent, in the first free slot from its home
  /// bucket, counting it into each full bucket passed.
  template <typename Match>
  V& insert_new(std::uint64_t hash, std::uint64_t key) {
    std::size_t b = hash & mask_;
    while (true) {
      Bucket& bucket = buckets_[b];
      if (const unsigned free = Match::free(bucket)) {
        const auto i = static_cast<unsigned>(std::countr_zero(free));
        bucket.keys[i] = key;
        bucket.values[i] = V{};
        bucket.occupy(i);
        ++size_;
        return bucket.values[i];
      }
      if (overflow_[b] != kSaturated) ++overflow_[b];
      b = (b + 1) & mask_;
    }
  }

  void rehash(std::size_t new_capacity) {
    Buckets old = std::move(buckets_);
    buckets_.assign(new_capacity / kBucketSlots, Bucket{});
    overflow_.assign(buckets_.size(), 0);
    mask_ = buckets_.size() - 1;
    size_ = 0;
    for (const Bucket& b : old) {
      for (unsigned m = b.occupied(); m != 0; m &= m - 1) {
        const auto i = static_cast<unsigned>(std::countr_zero(m));
        insert_new<ScalarKeyMatch>(mix64(b.keys[i]), b.keys[i]) =
            b.values[i];
      }
    }
  }

  Buckets buckets_;
  std::vector<std::uint8_t> overflow_;  // per bucket, saturating at 255
  std::size_t mask_ = 0;                // buckets - 1
  std::size_t size_ = 0;
};

}  // namespace bytecache::util
