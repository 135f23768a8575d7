// The large shared L2 tier behind every shard's hot L1 (DESIGN.md §14).
//
// One L2Store serves a whole gateway, striped one stripe per attached
// codec, each touched only by its owner's thread: the read path takes no
// lock (bc-nolock), and since flows map to shards by host-pair hash, the
// encoder- and decoder-side stripes see identical streams and evolve in
// lockstep.  l2_bytes divides into fixed per-stripe shares: an elastic
// global budget would make eviction depend on cross-shard *timing*, and
// a decoder stripe evicting what its encoder twin kept is perceived loss.
//
// A stripe keeps no fingerprint index: the attached codec's one
// FingerprintTable names owners by id in either tier, so demotion and
// promotion move only payload, metadata and anchor list (fingerprints
// and offsets, which anchor reuse needs).  The stripe erases a packet's
// entries only when it leaves the cache for good (share or host-budget
// eviction, NACK).
//
// Reclamation is epoch-deferred: a slice released during one packet
// (promotion take-out, eviction) waits on a limbo list until the
// end-of-packet boundary (Stripe::end_packet), so payload pointers the
// match loop obtained stay readable with no reference counting.
//
// Admission control: a demoted packet charges its host pair
// (PacketMeta::host_key); a pair over per_host_pair_bytes evicts its own
// coldest packets — never its neighbors' — and a packet larger than the
// pair budget or the stripe share is rejected.  Share eviction takes
// the stripe's least-recently-used packet, the same rule as the L1.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/cache_config.h"
#include "cache/fingerprint_table.h"
#include "util/flat_map.h"
#include "cache/host_budget.h"
#include "cache/packet_store.h"
#include "cache/recency_chain.h"
#include "cache/slice_arena.h"
#include "obs/fields.h"
#include "rabin/window.h"

namespace bytecache::cache {

/// Per-tier movement and occupancy counters (one struct per stripe,
/// surfaced as "encoder.cache.tier.*" / "decoder.cache.tier.*").
struct TierStats {
  std::uint64_t l2_hits = 0;         // lookups served from the L2
  std::uint64_t promotions = 0;      // L2 -> L1 (on hit, deferred)
  std::uint64_t demotions = 0;       // L1 -> L2 admission attempts
  std::uint64_t demotions_rejected = 0;  // refused by admission control
  std::uint64_t l2_evictions = 0;    // stripe-share budget evictions
  std::uint64_t host_evictions = 0;  // a pair evicting its own coldest
  std::uint64_t l2_fingerprints_purged = 0;  // entries erased with evictees
};

/// Telemetry field table (obs/fields.h): drives the generic merge_into /
/// reset / snapshot operations and the registry metric names.
[[nodiscard]] constexpr auto stats_fields(const TierStats*) {
  using S = TierStats;
  return obs::field_table<S>(
      obs::Field<S>{"l2_hits", &S::l2_hits},
      obs::Field<S>{"promotions", &S::promotions},
      obs::Field<S>{"demotions", &S::demotions},
      obs::Field<S>{"demotions_rejected", &S::demotions_rejected},
      obs::Field<S>{"l2_evictions", &S::l2_evictions},
      obs::Field<S>{"host_evictions", &S::host_evictions},
      obs::Field<S>{"l2_fingerprints_purged", &S::l2_fingerprints_purged});
}

using obs::merge_into;
using obs::reset;

class L2Store {
 public:
  /// One shard's private view of the store.  All methods except the
  /// read-only occupancy accessors must be called by the owning thread.
  class Stripe {
   public:
    Stripe(const CacheConfig& config, std::size_t share_bytes);

    // The global recency chain holds raw slot indices; relocation would
    // orphan them (and the codec caches the pointer).
    Stripe(const Stripe&) = delete;
    Stripe& operator=(const Stripe&) = delete;

    /// L2 hit on packet `id`: touches its global and per-host recency
    /// and — the first time in its current L2 residence — sets
    /// `enqueue_promotion`.  nullptr if not resident; the packet stays
    /// valid until end_packet().
    [[nodiscard]] const CachedPacket* find(std::uint64_t id,
                                           bool& enqueue_promotion);

    /// Admits a packet demoted from the L1 after per-host-pair admission
    /// control; false if rejected (the L1 then purges its entries).
    bool admit(const CachedPacket& pkt);

    /// A promoted packet leaving the stripe: id, meta and anchor list
    /// moved to `out` (the lists by swap, so buffer capacity circulates).
    /// The payload view stays readable until end_packet() (limbo).  False
    /// if `id` is not resident.
    using Taken = CachedPacket;
    bool take(std::uint64_t id, Taken& out);

    /// NACK invalidation reached the L2: erase packet `id` wholesale
    /// (plus every index entry it owns).  True if it was resident.
    bool invalidate(std::uint64_t id);

    /// End-of-packet epoch boundary: enforce the stripe share (deferred
    /// LRU eviction) and free limbo slices.
    void end_packet();

    /// Drops everything (cache flush; the codec clears the index).
    void clear();

    /// Deep invariant audit (BC_AUDIT): chain/index bijections, byte and
    /// per-host accounting, budgets, and an empty limbo list.
    void audit() const;

    [[nodiscard]] std::size_t bytes_used() const { return bytes_used_; }
    [[nodiscard]] std::size_t size() const { return id_index_.size(); }
    [[nodiscard]] bool contains(std::uint64_t id) const {
      return id_index_.find(id) != nullptr;
    }
    /// The resident packet `id` (no recency touch); nullptr if absent.
    [[nodiscard]] const CachedPacket* peek(std::uint64_t id) const {
      const std::uint32_t* slot = id_index_.find(id);
      return slot == nullptr ? nullptr : &slots_[*slot].pkt;
    }
    [[nodiscard]] std::size_t share_bytes() const { return share_; }
    [[nodiscard]] const HostLedger& hosts() const { return hosts_; }
    [[nodiscard]] const TierStats& stats() const { return stats_; }
    [[nodiscard]] TierStats& stats() { return stats_; }

   private:
    friend class L2Store;  // attach() wires in the codec's index

    struct Slot {
      CachedPacket pkt;
      SliceArena::Slice slice;
      std::uint32_t prev = kNilSlot;       // global chain (head = warmest)
      std::uint32_t next = kNilSlot;
      std::uint32_t host_prev = kNilSlot;  // per-host-pair chain
      std::uint32_t host_next = kNilSlot;
      bool live = false;
      bool promote_pending = false;
    };
    using Global = RecencyChain<&Slot::prev, &Slot::next>;
    using HostChain = RecencyChain<&Slot::host_prev, &Slot::host_next>;

    /// Copies a packet's payload and metadata into a fresh slot chained
    /// at the warm end of the global chain and of its host pair's,
    /// charging the pair; returns the slot.
    std::uint32_t occupy(std::uint64_t id, util::BytesView payload,
                         const PacketMeta& meta);
    /// Frees the slot, parking its slice on the limbo list (never frees
    /// payload bytes mid-packet — the deferred-reclamation contract).
    void retire_slot(std::uint32_t slot);
    /// Frees every parked slice (epoch boundary, flush).
    void free_limbo();
    void touch(std::uint32_t slot);
    /// Unchains and retires a resident slot, settling its accounting.
    void remove_slot(std::uint32_t slot);
    /// Purges the index entries `slot` owns and removes it; returns the
    /// number of index entries purged.
    std::size_t evict_slot(std::uint32_t slot);

    CacheConfig config_;
    std::size_t share_;
    std::size_t bytes_used_ = 0;
    ChainEnds recency_;
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_;
    util::FlatMap64<std::uint32_t> id_index_;  // packet id -> slot
    FingerprintTable* index_ = nullptr;  // the attached codec's index
    SliceArena arena_;
    HostLedger hosts_;
    std::vector<SliceArena::Slice> limbo_;
    TierStats stats_;
  };

  /// `stripes` is the number of codecs that will attach (the gateway's
  /// shard count); the l2_bytes budget divides evenly across them.
  L2Store(const CacheConfig& config, std::size_t stripes);

  /// Claims the next unclaimed stripe for the codec owning `index`
  /// (construction time).  Checks the store was sized for this many.
  [[nodiscard]] Stripe* attach(FingerprintTable& index);

  [[nodiscard]] const CacheConfig& config() const { return config_; }
  [[nodiscard]] std::size_t stripes() const { return stripes_.size(); }
  [[nodiscard]] const Stripe& stripe(std::size_t i) const {
    return *stripes_[i];
  }

 private:
  CacheConfig config_;
  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::size_t attached_ = 0;
};

}  // namespace bytecache::cache
