// The byte cache each codec holds (DESIGN.md §14): one L1 packet store,
// one fingerprint index, and optionally a stripe of a shared L2 behind
// them.
//
// The eviction hook keeps store and index consistent: when a payload
// leaves the cache for good (byte budget or NACK), every fingerprint
// entry still pointing at it is purged, so the index is bounded by the
// live contents; a hit on a vanished packet anyway is a miss, lazily
// erased (defense in depth).  Encoder and decoder run the *identical*
// cache-update procedure over the same original payload bytes, so with
// in-order, undamaged delivery the two caches evolve in lockstep — the
// paper's core synchronization assumption, and exactly what
// loss/reorder/corruption breaks (Section IV).
//
// With an L2 stripe attached (CacheConfig::l2_bytes > 0) the one index
// serves both tiers: an entry names its owner by id, and the owner's
// tier is found by id (the L1 store's id index, then the stripe's), so
// every fingerprint resolves in exactly one tier.  L1 budget victims
// demote into the stripe and L2 hits promote back at the next update(),
// each moving payload, metadata and anchor list — never index entries.
// Entries are erased only when a packet leaves the cache for good.
//
// There is no saved state: a restarted codec starts with an empty cache,
// and epoch resync brings its peer back in step (DESIGN.md §9).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cache/cache_config.h"
#include "cache/fingerprint_table.h"
#include "cache/l2_store.h"
#include "cache/packet_store.h"
#include "obs/fields.h"
#include "rabin/window.h"
#include "util/bytes.h"

namespace bytecache::cache {

struct CacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t stale_hits = 0;  // fingerprint present, packet evicted
  std::uint64_t packets_inserted = 0;
  std::uint64_t fingerprints_inserted = 0;
  std::uint64_t fingerprints_purged = 0;  // erased by the eviction hook
  std::uint64_t flushes = 0;
};

/// Telemetry field table (obs/fields.h): drives the generic merge_into /
/// reset / snapshot operations and the registry metric names.
[[nodiscard]] constexpr auto stats_fields(const CacheStats*) {
  return obs::field_table<CacheStats>(
      obs::Field<CacheStats>{"lookups", &CacheStats::lookups},
      obs::Field<CacheStats>{"hits", &CacheStats::hits},
      obs::Field<CacheStats>{"stale_hits", &CacheStats::stale_hits},
      obs::Field<CacheStats>{"packets_inserted",
                             &CacheStats::packets_inserted},
      obs::Field<CacheStats>{"fingerprints_inserted",
                             &CacheStats::fingerprints_inserted},
      obs::Field<CacheStats>{"fingerprints_purged",
                             &CacheStats::fingerprints_purged},
      obs::Field<CacheStats>{"flushes", &CacheStats::flushes});
}

/// Result of a successful fingerprint lookup.
struct CacheHit {
  const CachedPacket* packet = nullptr;
  std::uint16_t offset = 0;  // window start within packet->payload
};

class CacheTier final : private EvictionListener {
 public:
  /// `config.l1_bytes` bounds stored payload bytes (0 = unbounded); the
  /// fingerprint table is pre-sized from it (about one selected anchor
  /// per 16 payload bytes at the paper's parameters).  With `l2`, one
  /// stripe is attached (claimed for this codec's thread) and L1
  /// evictions start demoting into it.
  explicit CacheTier(const CacheConfig& config = {},
                     L2Store* l2 = nullptr);

  // The store holds a pointer back to this object as its eviction
  // listener, and the stripe one to its index; relocation would leave
  // them dangling.
  CacheTier(const CacheTier&) = delete;
  CacheTier& operator=(const CacheTier&) = delete;

  /// Runs the cache-update procedure (paper Fig. 2 C): stores `payload`
  /// and points every anchor's fingerprint at it.  `anchors` must be the
  /// selected anchors of `payload` — all of them, in ascending offset
  /// order, as later copies of this payload reuse them (DESIGN.md §15).
  /// No-op if `anchors` is empty (a packet with no selected fingerprint
  /// can never be referenced).  Returns the store id (0 if not stored).
  /// Tiered, queued promotions apply first (in hit order), and the
  /// stripe's epoch boundary runs last (budget eviction + limbo).
  std::uint64_t update(util::BytesView payload,
                       const std::vector<rabin::Anchor>& anchors,
                       const PacketMeta& meta);

  /// Fingerprint lookup with lazy invalidation, served from whichever
  /// tier holds the owner.  Returns nullopt on miss.  An L2 hit stays
  /// valid through this packet's update and is promoted at the next
  /// update().
  [[nodiscard]] std::optional<CacheHit> find(rabin::Fingerprint fp);

  /// Batched-probe front half of find(): probes every anchor's
  /// fingerprint with slot prefetch (FingerprintTable::probe_batch) and
  /// resizes `out` to anchors.size().  Side-effect free — no statistics,
  /// no LRU touch — so probing anchors the match loop later skips cannot
  /// perturb eviction order or counters.  A probe that misses is a miss
  /// in both tiers.
  void probe_batch(std::span<const rabin::Anchor> anchors,
                   std::vector<ProbeResult>& out) const;

  /// Back half: resolves one probed anchor with exactly find()'s
  /// statistics, LRU-touch, and stale-erase sequence, so a
  /// probe_batch+resolve loop is observably identical to per-anchor
  /// find() calls in the same order.  `fp` must be the fingerprint the
  /// probe was issued for.
  [[nodiscard]] std::optional<CacheHit> resolve(rabin::Fingerprint fp,
                                                const ProbeResult& probe);

  /// Hints the cache to pull `fp`'s fingerprint-table slot (decoder's
  /// next-region lookahead).
  void prefetch(rabin::Fingerprint fp) const { table_.prefetch(fp); }

  /// Cache flush (paper Section V-A): both tiers.
  void flush();

  /// Reacts to a decoder NACK for `fp`: removes the fingerprint AND the
  /// whole packet it points to, in whichever tier holds it (the purge
  /// takes every other fingerprint referencing that packet; never
  /// demotes it — the peer lost those bytes).  Returns true if an entry
  /// existed.
  bool invalidate(rabin::Fingerprint fp);

  /// Deep invariant audit (BC_AUDIT; no-op unless the build enables
  /// audits): both tiers, the fingerprint table against the L1 store,
  /// the statistics counters for internal consistency, the index rule
  /// (see audit_index) and no packet id resident in both tiers.
  void audit() const;

  /// The index rule, over any index/L1/L2 triple (`l2` may be null):
  /// every entry names a packet resident in exactly one tier, its offset
  /// lies inside that payload, the fingerprint is on the owner's `fps`
  /// list, and every owner count equals the entries naming that owner.
  /// Public so tests can feed it a known-bad index.
  static void audit_index(const FingerprintTable& index,
                          const PacketStore& l1,
                          const L2Store::Stripe* l2);

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] const PacketStore& store() const { return store_; }
  /// The codec's one index, both tiers' entries.
  [[nodiscard]] const FingerprintTable& table() const { return table_; }
  /// Entries owned by L1 residents; a table scan when an L2 is attached
  /// (telemetry and tests only).
  [[nodiscard]] std::size_t fingerprint_count() const {
    return owned_entries(/*in_l2=*/false);
  }
  /// Entries owned by L2 residents; a table scan (telemetry and tests).
  [[nodiscard]] std::size_t l2_fingerprint_count() const {
    return owned_entries(/*in_l2=*/true);
  }

  // ---- Tier introspection ----
  [[nodiscard]] bool has_l2() const { return stripe_ != nullptr; }
  /// This codec's stripe (nullptr when no L2 is attached).
  [[nodiscard]] const L2Store::Stripe* stripe() const { return stripe_; }
  /// Movement counters; a zero struct when no L2 is attached.
  [[nodiscard]] const TierStats& tier_stats() const;
  [[nodiscard]] const CacheConfig& config() const { return config_; }

 private:
  /// A packet leaving the L1 store: budget victims that still own
  /// entries demote into the stripe; everything else has its entries
  /// purged.
  void on_evict(const CachedPacket& pkt, EvictReason reason) override;

  /// find()/resolve() tail: the hit on `entry`, from either tier.
  std::optional<CacheHit> hit(rabin::Fingerprint fp, const FpEntry& entry);

  /// Applies the queued L2 -> L1 promotions in hit order.
  void apply_promotions();

  /// Entries owned by residents of the L2 (`in_l2`) or the L1.
  [[nodiscard]] std::size_t owned_entries(bool in_l2) const;

  PacketStore store_;
  FingerprintTable table_;
  CacheStats stats_;
  L2Store::Stripe* stripe_ = nullptr;  // owned by the shared L2Store
  CacheConfig config_;

  /// Ids awaiting promotion, in first-hit order; applied at update().
  std::vector<std::uint64_t> promote_queue_;
  /// Reused per-promotion scratch.
  L2Store::Stripe::Taken taken_;
};

}  // namespace bytecache::cache
