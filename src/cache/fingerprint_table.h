// Fingerprint -> (packet id, offset) index.
//
// Matches the paper's cache-update procedure (Fig. 2 C / Fig. 7 C): each
// selected fingerprint maps to the *latest* packet containing it and the
// offset of the window within that packet; inserting an existing
// fingerprint overwrites the entry (Section III-A).  Entries whose
// packet left the cache are purged eagerly by CacheTier's eviction hook,
// so memory is bounded by the live cache; lazy invalidation at lookup
// time remains as defense in depth.
//
// Backed by the bucketed FlatMap64 (util/flat_map.h).  A bucket is one
// 64-byte line: four fingerprints, then four words packing a packet id
// (high 48 bits) and a window offset (low 16).  Ids start at 1, so a
// zero word marks an empty slot (util::EmptySlot::kZeroValue);
// PacketStore keeps ids below kPacketIdLimit.  probe_batch, put_anchors
// and purge hash each fingerprint once, grow the map at most once per
// call, and compare a bucket's four keys with the AVX2 kernel
// (fingerprint_table_avx2.cc) when util::simd() allows; single-key
// operations and the BYTECACHE_DISABLE_SIMD=1 path use the scalar
// compare, which picks the same slots.
//
// The table also counts, per packet id, the entries naming that packet.
// A departing packet whose count is zero — every fingerprint it held was
// overwritten by a newer copy, the common case on repetitive traffic —
// skips the purge walk over its fingerprint list entirely.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "cache/packet_store.h"
#include "util/flat_map.h"
#include "rabin/rabin.h"
#include "rabin/window.h"

namespace bytecache::cache {

struct FpEntry {
  std::uint64_t packet_id = 0;  // PacketStore id
  std::uint16_t offset = 0;     // window start within the payload
};

/// Result of one batched probe: the entry is copied by value because the
/// caller resolves probes interleaved with table mutation (stale-entry
/// erase), which invalidates FlatMap64 pointers.
struct ProbeResult {
  FpEntry entry;
  bool found = false;
};

class FingerprintTable {
 public:
  /// Inserts or overwrites the entry for `fp`.  Entries must reference a
  /// store-assigned id (never 0).
  void put(rabin::Fingerprint fp, FpEntry entry);

  /// Points every anchor's fingerprint at packet `id` (the cache-update
  /// procedure's index half): put() per anchor, but the owner counts
  /// move once per run of entries taken over from the same previous
  /// owner instead of once per entry.
  void put_anchors(std::uint64_t id, std::span<const rabin::Anchor> anchors);

  /// Looks up `fp`; nullopt if absent.
  [[nodiscard]] std::optional<FpEntry> get(rabin::Fingerprint fp) const {
    const Packed* e = map_.find(fp);
    if (e == nullptr) return std::nullopt;
    return unpack(*e);
  }

  /// Removes the entry for `fp` if present.
  void erase(rabin::Fingerprint fp) {
    std::uint64_t owner = 0;
    if (map_.erase_if(fp, [&](Packed e) {
          owner = unpack(e).packet_id;
          return true;
        })) {
      disown(owner, 1);
    }
  }

  /// Hints the cache to pull `fp`'s home bucket (see FlatMap64::prefetch).
  void prefetch(rabin::Fingerprint fp) const { map_.prefetch(fp); }

  /// Probes every anchor's fingerprint, writing out[i] for anchors[i].
  /// While probing anchor N the table issues a prefetch for anchor
  /// N+kProbeAhead's home bucket, so the encoder's anchor->match loop pays
  /// one L1 hit per probe instead of one cache miss each.  Side-effect
  /// free: no stats, no LRU touch — the caller resolves hits through
  /// CacheTier::resolve in its own order.  Requires out.size() >=
  /// anchors.size().
  void probe_batch(std::span<const rabin::Anchor> anchors,
                   std::span<ProbeResult> out) const;

  /// Probe lookahead distance of the batched operations: far enough to
  /// cover an L2 miss across the ~6 probes in flight at typical anchor
  /// densities, small enough that short anchor lists still get full
  /// coverage.  Measured with 16 B linear-probing slots (24 won 3 of 8
  /// interleaved churn_mix pairs against 8) and kept for 64 B buckets,
  /// where each key still costs one line.  A power of two: the hashes in
  /// flight sit in a ring of this many.
  static constexpr std::size_t kProbeAhead = 8;

  /// Removes the entry for `fp` only if it references `packet_id` (the
  /// eviction-purge path: a newer packet may have overwritten the entry,
  /// which must then survive the old packet's eviction).  Returns true if
  /// an entry was removed.
  bool erase_if_owner(rabin::Fingerprint fp, std::uint64_t packet_id) {
    if (!map_.erase_if(fp, OwnedBy{packet_id})) return false;
    disown(packet_id, 1);
    return true;
  }

  /// The eviction purge: erases the entries packet `packet_id` still owns
  /// among `fps` (its fingerprint list; newer packets' overwrites
  /// survive) and settles its owner count once.  One probe per
  /// fingerprint, with nothing shifted after an erase; the walk stops
  /// once owned(packet_id) entries are gone, and a packet owning nothing
  /// skips it.  Returns the number of entries erased.
  std::size_t purge(std::uint64_t packet_id,
                    std::span<const rabin::Fingerprint> fps);

  /// Number of entries naming `packet_id` (0 once every fingerprint it
  /// held was overwritten or purged: its eviction has nothing to purge).
  [[nodiscard]] std::uint32_t owned(std::uint64_t packet_id) const {
    const std::uint32_t* n = owners_.find(packet_id);
    return n == nullptr ? 0 : *n;
  }

  /// Number of packet ids owning at least one entry.
  [[nodiscard]] std::size_t owner_count() const { return owners_.size(); }

  void clear() {
    map_.clear();
    owners_.clear();
  }

  /// Pre-sizes the table for `n` fingerprints (derived from the cache
  /// byte budget by CacheTier) so steady-state inserts never rehash.  The
  /// owner counts get one slot per 16 fingerprints — one per 256 budget
  /// bytes, the minimum arena slice a stored packet occupies.
  void reserve(std::size_t n) {
    map_.reserve(n);
    owners_.reserve(n / 16);
  }

  /// Deep invariant audit against the store the entries point into
  /// (BC_AUDIT; no-op unless the build enables audits).  Every entry
  /// either resolves — its packet id was assigned by `store`, is present,
  /// and the recorded offset lies inside the payload — or is stale
  /// (packet evicted), which lazy invalidation permits.  Returns the
  /// number of stale entries so callers can bound staleness if they wish
  /// (with eviction purging wired, it stays 0).  Also holds every owner
  /// count to the number of entries naming that owner.
  std::size_t audit(const PacketStore& store) const;

  /// The owner-count half of audit(): every count equals the entries
  /// naming its owner and no owner of an entry is uncounted (BC_AUDIT).
  void audit_owner_counts() const;

  /// Test seam: skews `packet_id`'s owner count by `delta` so the audits
  /// can be shown to catch a miscount.  Never called by the data plane.
  void skew_owner_count_for_test(std::uint64_t packet_id,
                                 std::int64_t delta) {
    bool inserted = false;
    std::uint32_t& n = owners_.upsert(packet_id, inserted);
    n = static_cast<std::uint32_t>(static_cast<std::int64_t>(n) + delta);
  }

  [[nodiscard]] std::size_t size() const { return map_.size(); }

  /// Visits every (fingerprint, entry) pair in bucket order (audits and
  /// telemetry): the same operations give the same order, but no order
  /// is promised across changes to the map's layout.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    map_.for_each([&](std::uint64_t fp, Packed e) { fn(fp, unpack(e)); });
  }

 private:
  /// A slot's entry word: packet id << 16 | offset (never zero).
  using Packed = std::uint64_t;
  static constexpr unsigned kOffsetBits = 16;

  [[nodiscard]] static Packed pack(std::uint64_t id, std::uint16_t offset) {
    return id << kOffsetBits | offset;
  }
  [[nodiscard]] static FpEntry unpack(Packed e) {
    return FpEntry{e >> kOffsetBits, static_cast<std::uint16_t>(e)};
  }

  /// erase_if predicate: the entry names packet `id`.
  struct OwnedBy {
    std::uint64_t id;
    bool operator()(Packed e) const { return e >> kOffsetBits == id; }
  };

  using Map = util::FlatMap64<Packed, util::EmptySlot::kZeroValue>;

  // The batched operations over a bucket compare (util::ScalarKeyMatch's
  // contract), defined in fingerprint_batch.h.  The *_avx2 forms
  // instantiate them with the AVX2 compare, in fingerprint_table_avx2.cc;
  // they are only called when util::simd().avx2 holds.
  template <typename Match>
  void probe_batch_with(std::span<const rabin::Anchor> anchors,
                        std::span<ProbeResult> out) const;
  template <typename Match>
  void put_anchors_with(std::uint64_t id,
                        std::span<const rabin::Anchor> anchors);
  template <typename Match>
  std::size_t purge_with(std::uint64_t packet_id,
                         std::span<const rabin::Fingerprint> fps);
  void probe_batch_avx2(std::span<const rabin::Anchor> anchors,
                        std::span<ProbeResult> out) const;
  void put_anchors_avx2(std::uint64_t id,
                        std::span<const rabin::Anchor> anchors);
  std::size_t purge_avx2(std::uint64_t packet_id,
                         std::span<const rabin::Fingerprint> fps);

  /// Drops `n` entries from `packet_id`'s count, releasing the slot at 0.
  void disown(std::uint64_t packet_id, std::uint32_t n) {
    std::uint32_t* count = owners_.find(packet_id);
    if (count == nullptr) return;
    if (*count <= n) {
      owners_.erase(packet_id);
    } else {
      *count -= n;
    }
  }

  Map map_;
  util::FlatMap64<std::uint32_t> owners_;  // packet id -> entries naming it
};

}  // namespace bytecache::cache
