// Open-addressing hash map with 64-bit keys, shared by the data-plane
// cache structures (FingerprintTable, PacketStore's id index) and the
// per-connection tables on the encode path (the encoder's flow records,
// the resilience layer's host-pair records).
//
// Why not std::unordered_map: the node-based layout costs one allocation
// per insert and a pointer chase per probe — both on the encoder's
// per-packet path.  This table stores slots contiguously, probes
// linearly from a mixed hash (the keys are Rabin fingerprints whose low
// `select_bits` bits are zero by construction, so the raw value must
// never be used as an index), and deletes by backward shifting instead
// of tombstones, so lookup cost never degrades with churn.  Capacity is
// a power of two; the load factor is kept at or below 3/4.  Slot arrays
// of 2 MiB or more sit on huge pages (util/huge_pages.h): the
// fingerprint index is probed at random across megabytes, and on 4 KiB
// pages nearly every probe also missed the TLB.
//
// Slot form is the one compile-time choice (EmptySlot): by default a
// slot carries a `used` byte next to its value; a map whose values are
// never zero (the fingerprint index's packed {id, offset} word) marks an
// empty slot with a zero value instead, so a slot is exactly key plus
// value — 16 B rather than 24 or 32.  Home slot, probe order, erase
// shifting and growth are the same code for both forms, so the same
// operations leave the same slot layout and for_each order.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/huge_pages.h"

namespace bytecache::util {

/// Murmur3-style 64-bit finalizer: full-avalanche, so clustered or
/// low-bit-zero keys spread uniformly over the slot array.
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
  kUsedByte,   // a flag byte beside the value (any value may be stored)
  kZeroValue,  // an all-zero value: the map never stores one
};

/// The slot of a FlatMap64<V, E>: key, value and the emptiness rule.
template <typename V, EmptySlot E>
struct FlatSlot {
  std::uint64_t key = 0;
  V value{};
  std::uint8_t used = 0;

  [[nodiscard]] bool occupied() const { return used != 0; }
  void occupy() { used = 1; }
  void vacate() { used = 0; }
};

template <typename V>
struct FlatSlot<V, EmptySlot::kZeroValue> {
  static_assert(sizeof(V) == sizeof(std::uint64_t) &&
                    std::is_trivially_copyable_v<V>,
                "a zero-value slot holds one 64-bit word");

  std::uint64_t key = 0;
  V value{};

  [[nodiscard]] bool occupied() const {
    return std::bit_cast<std::uint64_t>(value) != 0;
  }
  void occupy() {}  // the caller's nonzero value marks it
  void vacate() { value = V{}; }
};

/// Under EmptySlot::kZeroValue every stored value must be nonzero, and
/// the slot upsert() inserts must be given one before the next call.
template <typename V, EmptySlot E = EmptySlot::kUsedByte>
class FlatMap64 {
 public:
  FlatMap64() { rehash(kMinCapacity); }

  /// Pre-sizes the table so `n` entries fit without growing.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * 3 / 4 < n) cap <<= 1;
    if (cap > slots_.size()) rehash(cap);
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
    if ((size_ + 1) * 4 > slots_.size() * 3) rehash(slots_.size() * 2);
    std::size_t i = mix64(key) & mask_;
    while (slots_[i].occupied()) {
      if (slots_[i].key == key) {
        inserted = false;
        return slots_[i].value;
      }
      i = (i + 1) & mask_;
    }
    slots_[i].key = key;
    slots_[i].value = V{};
    slots_[i].occupy();
    ++size_;
    inserted = true;
    return slots_[i].value;
  }

  /// upsert() for callers that do not care whether `key` was new.
  V& upsert(std::uint64_t key) {
    bool inserted = false;
    return upsert(key, inserted);
  }

  /// Pointer to the value for `key`, or nullptr if absent.  Stable only
  /// until the next put/erase.
  [[nodiscard]] const V* find(std::uint64_t key) const {
    std::size_t i = mix64(key) & mask_;
    while (slots_[i].occupied()) {
      if (slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  [[nodiscard]] V* find(std::uint64_t key) {
    return const_cast<V*>(static_cast<const FlatMap64*>(this)->find(key));
  }

  /// Hints the cache to pull `key`'s home slot: a later find(key) probes
  /// that slot first, so issuing this d keys ahead hides the slot-array
  /// miss behind useful work (the batched probe path, see
  /// FingerprintTable::probe_batch).  Collision chains may still touch
  /// cold neighbours; the home slot dominates at our <= 3/4 load factor.
  void prefetch(std::uint64_t key) const {
    __builtin_prefetch(&slots_[mix64(key) & mask_], /*rw=*/0, /*locality=*/1);
  }

  /// Removes `key` if present; backward-shifts the probe chain so no
  /// tombstone is left behind.  Returns true if an entry was removed.
  bool erase(std::uint64_t key) {
    return erase_if(key, [](const V&) { return true; });
  }

  /// Removes `key` if present and `pred(value)` holds, in one probe (a
  /// find() then erase() walks the chain twice).  Returns true if an
  /// entry was removed.
  template <typename Pred>
  bool erase_if(std::uint64_t key, Pred&& pred) {
    std::size_t i = mix64(key) & mask_;
    while (true) {
      if (!slots_[i].occupied()) return false;
      if (slots_[i].key == key) break;
      i = (i + 1) & mask_;
    }
    if (!pred(static_cast<const V&>(slots_[i].value))) return false;
    // Knuth Vol. 3, 6.4 Algorithm R: refill the hole with any later
    // element of the probe chain whose home slot does not lie cyclically
    // inside (i, j], repeating until a gap terminates the chain.
    std::size_t j = i;
    while (true) {
      slots_[i].vacate();
      while (true) {
        j = (j + 1) & mask_;
        if (!slots_[j].occupied()) {
          --size_;
          return true;
        }
        const std::size_t home = mix64(slots_[j].key) & mask_;
        const bool reachable = i <= j ? (home <= i || home > j)
                                      : (home <= i && home > j);
        if (reachable) break;
      }
      slots_[i] = slots_[j];
      i = j;
    }
  }

  void clear() {
    for (Slot& s : slots_) s.vacate();
    size_ = 0;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// Visits every (key, value) pair in unspecified order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Slot& s : slots_) {
      if (s.occupied()) fn(s.key, s.value);
    }
  }

 private:
  static constexpr std::size_t kMinCapacity = 16;

  using Slot = FlatSlot<V, E>;
  using Slots = std::vector<Slot, HugePageAllocator<Slot>>;

  void rehash(std::size_t new_capacity) {
    Slots old = std::move(slots_);
    slots_.assign(new_capacity, Slot{});
    mask_ = new_capacity - 1;
    size_ = 0;
    for (const Slot& s : old) {
      if (s.occupied()) put(s.key, s.value);
    }
  }

  Slots slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace bytecache::util
