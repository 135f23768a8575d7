// The two-tier cache facade the codecs hold (DESIGN.md §14).
//
// CacheTier mirrors ByteCache's API, so the codecs kept every call site;
// with no L2 configured (the default) it is a passthrough, bit-identical
// to the flat cache, which the equivalence suite pins.
//
// With an L2 (CacheConfig::l2_bytes > 0, an L2Store stripe attached) the
// codec still keeps ONE fingerprint index for both tiers, sized for the
// L1 budget plus the stripe share.  An entry names its owner by id, and
// the owner's tier is found by id (the L1 store's id index, then the
// stripe's), so every fingerprint resolves in exactly one tier by
// construction.  L1 budget evictions demote into the stripe and L2 hits
// promote back (deferred to the next update(), so the L1 never mutates
// mid-match-loop), each moving only payload, metadata and anchor list —
// no index edits.  update()'s overwrite moves ownership to the
// newest packet in either tier.  Entries are erased only when a packet
// leaves the cache for good: an L2 eviction, an admission rejection, a
// NACK invalidation in either tier, or an L1 victim owning nothing.
//
// Snapshots: save()/load() emit the legacy flat "BCC1" block when no L2
// is attached (byte-identical to the pre-tier persist format) and the
// two-tier "BCT1" container when one is; load() sniffs the magic, so
// either side reads either vintage.  With SnapshotMode::kIncremental the
// tier also journals update/invalidate/flush operations, and
// save_incremental() emits a CRC-guarded "BCI1" delta replayed on load.
#pragma once

#include <cstdint>
#include <vector>

#include "cache/byte_cache.h"
#include "cache/cache_config.h"
#include "cache/l2_store.h"
#include "cache/snapshot.h"

namespace bytecache::cache {

class CacheTier final : private LowerTier {
 public:
  /// An L2-less tier (l2 == nullptr) is a plain ByteCache behind the same
  /// API.  With a store, one stripe is attached (claimed for this codec's
  /// thread) and L1 evictions start demoting into it.
  explicit CacheTier(const CacheConfig& config = {},
                     L2Store* l2 = nullptr);

  // The L1 points back at this object as its lower tier.
  CacheTier(const CacheTier&) = delete;
  CacheTier& operator=(const CacheTier&) = delete;

  /// The cache-update procedure (paper Fig. 2 C) plus tier maintenance:
  /// queued promotions apply first (in hit order), then the L1 update
  /// (its index overwrites move ownership, whichever tier held it), and
  /// the stripe's epoch boundary runs (budget eviction + limbo).
  std::uint64_t update(util::BytesView payload,
                       const std::vector<rabin::Anchor>& anchors,
                       const PacketMeta& meta);

  /// Index lookup, served from whichever tier holds the owner.  An L2
  /// hit stays valid through this packet's update and is promoted at the
  /// next update().
  [[nodiscard]] std::optional<CacheHit> find(rabin::Fingerprint fp) {
    return l1_.find(fp);
  }

  /// Batched probe of the one index (see ByteCache::probe_batch): a
  /// probe that misses is a miss in both tiers.  Side-effect free.
  void probe_batch(std::span<const rabin::Anchor> anchors,
                   std::vector<ProbeResult>& out) const {
    l1_.probe_batch(anchors, out);
  }

  /// Resolves one probed anchor exactly as find() would, tiered or not.
  [[nodiscard]] std::optional<CacheHit> resolve(rabin::Fingerprint fp,
                                                const ProbeResult& probe) {
    return l1_.resolve(fp, probe);
  }

  void prefetch(rabin::Fingerprint fp) const { l1_.prefetch(fp); }

  /// Cache flush (paper Section V-A): both tiers.
  void flush();

  /// NACK invalidation: kills the owning packet in whichever tier holds
  /// the fingerprint (never demotes it — the peer lost those bytes).
  bool invalidate(rabin::Fingerprint fp);

  /// Deep invariant audit: both tiers, plus the index rule (see
  /// audit_index) and no packet id resident in both tiers.
  void audit() const;

  /// The index rule, over any index/L1/L2 triple (`l2` may be null):
  /// every entry names a packet resident in exactly one tier, its offset
  /// lies inside that payload, the fingerprint is on the owner's `fps`
  /// list, and every owner count equals the entries naming that owner.
  /// Public so tests can feed it a known-bad index.
  static void audit_index(const FingerprintTable& index,
                          const PacketStore& l1,
                          const L2Store::Stripe* l2);

  // ---- L1 passthrough (telemetry, tests, snapshot primitives) ----
  [[nodiscard]] const CacheStats& stats() const { return l1_.stats(); }
  [[nodiscard]] const PacketStore& store() const { return l1_.store(); }
  /// The codec's one index, both tiers' entries.
  [[nodiscard]] const FingerprintTable& table() const { return l1_.table(); }
  /// Entries owned by L1 residents (see ByteCache).
  [[nodiscard]] std::size_t fingerprint_count() const {
    return l1_.fingerprint_count();
  }
  /// Entries owned by L2 residents; a table scan (telemetry and tests).
  [[nodiscard]] std::size_t l2_fingerprint_count() const;

  // ---- Tier introspection ----
  [[nodiscard]] bool has_l2() const { return stripe_ != nullptr; }
  /// This codec's stripe (nullptr when no L2 is attached).
  [[nodiscard]] const L2Store::Stripe* stripe() const { return stripe_; }
  /// Movement counters; a zero struct when no L2 is attached.
  [[nodiscard]] const TierStats& tier_stats() const;
  [[nodiscard]] const CacheConfig& config() const { return config_; }

  // ---- Versioned snapshot/restore (cache/snapshot.h) ----

  /// Full image: the legacy flat "BCC1" block when no L2 is attached
  /// (byte-identical to the pre-tier format), the "BCT1" container
  /// otherwise.  Starts a new journal epoch.
  void save(SnapshotWriter& w);

  /// Incremental delta ("BCI1"): the operations journaled since the last
  /// save boundary, CRC-guarded.  Falls back to a full image when the
  /// journal is unavailable (kFull mode, overflow, or no boundary yet).
  void save_incremental(SnapshotWriter& w);

  /// Restores from any of the three formats (sniffed by magic).  A
  /// "BCI1" delta only applies on top of the exact state version it was
  /// taken against (the save boundary sequence number).  Returns false —
  /// with the tier flushed and the reader failed — on malformed input,
  /// a version mismatch, or a format/configuration mismatch (a "BCT1"
  /// image needs an attached L2).
  bool load(SnapshotReader& r);

  /// State version, bumped at each save boundary (deltas chain on it).
  [[nodiscard]] std::uint64_t snapshot_seq() const { return seq_; }

 private:
  static constexpr std::size_t kJournalCapBytes = 8 * 1024 * 1024;
  // Journal op tags (BCI1).
  static constexpr std::uint8_t kOpUpdate = 0x01;
  static constexpr std::uint8_t kOpInvalidate = 0x02;
  static constexpr std::uint8_t kOpFlush = 0x03;

  bool on_demote(const CachedPacket& pkt) override {
    return stripe_->admit(pkt);
  }
  const CachedPacket* lookup(std::uint64_t id) override;

  /// Applies the queued L2 -> L1 promotions in hit order.
  void apply_promotions();

  void journal_update(util::BytesView payload,
                      const std::vector<rabin::Anchor>& anchors,
                      const PacketMeta& meta);
  void journal_op(std::uint8_t tag, rabin::Fingerprint fp);
  void journal_reset();
  [[nodiscard]] bool journaling() const {
    return config_.snapshot_mode == SnapshotMode::kIncremental &&
           !replaying_;
  }

  bool load_flat(SnapshotReader& r);
  bool load_tier(SnapshotReader& r);
  bool load_incremental(SnapshotReader& r);
  bool reject(SnapshotReader& r);

  ByteCache l1_;
  L2Store::Stripe* stripe_ = nullptr;  // owned by the shared L2Store
  CacheConfig config_;

  /// Ids awaiting promotion, in first-hit order; applied at update().
  std::vector<std::uint64_t> promote_queue_;
  /// Reused per-promotion scratch.
  L2Store::Stripe::Taken taken_;

  // Incremental-snapshot journal (SnapshotMode::kIncremental only).
  SnapshotWriter journal_;
  std::uint32_t journal_ops_ = 0;
  bool journal_overflow_ = true;  // no boundary yet: nothing to chain on
  bool replaying_ = false;
  std::uint64_t seq_ = 0;
};

}  // namespace bytecache::cache
