// The byte cache used by both the encoder and decoder gateways.
//
// Combines the packet store and the fingerprint table and keeps them
// consistent: when a payload leaves the cache for good (byte budget or
// NACK), the eviction hook purges every fingerprint entry still pointing
// at it, so the table's memory is bounded by the live cache contents.
// With a lower tier attached (CacheTier's L2) the table indexes both
// tiers: entries name packets by id, and the lower tier answers for ids
// the store does not hold.  A fingerprint hit whose packet has vanished
// anyway is treated as a miss and lazily erased (defense in depth).
// Encoder and decoder run the
// *identical* cache-update procedure over the same (original) payload
// bytes, so as long as packets are delivered in order and undamaged the
// two caches evolve in lockstep — the paper's core synchronization
// assumption, and exactly what loss/reorder/corruption breaks
// (Section IV).
#pragma once

#include <cstdint>
#include <span>

#include "cache/cache_config.h"
#include "cache/fingerprint_table.h"
#include "cache/packet_store.h"
#include "cache/snapshot.h"
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

/// Generic aggregation across the per-shard caches of a sharded gateway
/// (gateway/sharded_gateways.h) — one descriptor-driven implementation
/// shared by every stats struct.
using obs::merge_into;
using obs::reset;

/// Result of a successful fingerprint lookup.
struct CacheHit {
  const CachedPacket* packet = nullptr;
  std::uint16_t offset = 0;  // window start within packet->payload
};

/// The tier below the L1 (CacheTier implements it over an L2 stripe).
/// Index entries stay put when their packet changes tier.
class LowerTier {
 public:
  virtual ~LowerTier() = default;
  /// Offered a budget victim that still owns index entries, while its
  /// payload is valid (never a NACKed packet: that must die everywhere).
  /// True if admitted, its entries now naming a lower-tier resident;
  /// false if it is gone for good and the L1 must purge its entries.
  virtual bool on_demote(const CachedPacket& pkt) = 0;
  /// The lower-tier resident `id` a hit named, or nullptr if absent.
  virtual const CachedPacket* lookup(std::uint64_t id) = 0;
};

class ByteCache final : private EvictionListener {
 public:
  /// `config.l1_bytes` bounds stored payload bytes (0 = unbounded); the
  /// fingerprint table is pre-sized from it (about one selected anchor
  /// per 16 payload bytes at the paper's parameters).  The L2 knobs are
  /// read by CacheTier, not here.
  explicit ByteCache(const CacheConfig& config = {});

  // The store holds a pointer back to this object as its eviction
  // listener; relocation would leave it dangling.
  ByteCache(const ByteCache&) = delete;
  ByteCache& operator=(const ByteCache&) = delete;

  /// Runs the cache-update procedure (paper Fig. 2 C): stores `payload`
  /// and points every anchor's fingerprint at it.  `anchors` must be the
  /// selected anchors of `payload` — all of them, in ascending offset
  /// order, as later copies of this payload reuse them (DESIGN.md §15).
  /// No-op if `anchors` is empty (a packet with no selected fingerprint
  /// can never be referenced).  Returns the store id (0 if not stored).
  std::uint64_t update(util::BytesView payload,
                       const std::vector<rabin::Anchor>& anchors,
                       const PacketMeta& meta);

  /// Fingerprint lookup with lazy invalidation.  Returns nullopt on miss.
  [[nodiscard]] std::optional<CacheHit> find(rabin::Fingerprint fp);

  /// Batched-probe front half of find(): probes every anchor's
  /// fingerprint with slot prefetch (FingerprintTable::probe_batch) and
  /// resizes `out` to anchors.size().  Side-effect free — no statistics,
  /// no LRU touch — so probing anchors the match loop later skips cannot
  /// perturb eviction order or counters.
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

  /// Cache flush (paper Section V-A).
  void flush();

  /// Reacts to a decoder NACK for `fp`: removes the fingerprint AND the
  /// whole L1 packet it points to (the eviction hook purges every other
  /// fingerprint referencing that packet; CacheTier handles owners in the
  /// L2).  Returns true if an entry existed.
  bool invalidate(rabin::Fingerprint fp);

  /// Deep invariant audit (BC_AUDIT; no-op unless the build enables
  /// audits): audits the store, audits the fingerprint table against it,
  /// and checks the statistics counters for internal consistency.  That
  /// no entry is stale is CacheTier::audit's rule: only it sees both
  /// tiers.
  void audit() const;

  [[nodiscard]] const CacheStats& stats() const { return stats_; }
  [[nodiscard]] const PacketStore& store() const { return store_; }
  [[nodiscard]] const FingerprintTable& table() const { return table_; }
  /// Entries owned by L1 residents; a table scan when a lower tier is
  /// attached (telemetry and tests only).
  [[nodiscard]] std::size_t fingerprint_count() const;

  /// Snapshot-restore primitives (see cache/snapshot.h); bypass the
  /// normal update path and statistics.  restore_fingerprint also records
  /// the fingerprint on its packet so the eviction purge keeps working
  /// after a warm restart.
  void restore_packet(std::uint64_t id, util::BytesView payload,
                      const PacketMeta& meta) {
    store_.restore(id, payload, meta);
  }
  void restore_fingerprint(rabin::Fingerprint fp, FpEntry entry) {
    table_.put(fp, entry);
    store_.note_fingerprint(entry.packet_id, fp, entry.offset);
  }

  /// Serializes the cache contents (not statistics) as one "BCC1" block
  /// — byte-identical to the original persist.h format, so snapshots
  /// from before the tier redesign stay readable and vice versa.  Holds
  /// only entries owned by L1 residents.
  void save(SnapshotWriter& w) const;

  /// Restores one "BCC1" block, replacing the current contents and
  /// consuming exactly the block's bytes (callers embedding the block in
  /// a larger snapshot keep reading after it; stand-alone callers check
  /// r.at_end()).  Returns false — with the cache flushed and the reader
  /// failed — on malformed input.
  bool load(SnapshotReader& r);

  // ---- Tier plumbing (cache/cache_tier.h) ----

  /// Registers the tier below (at most one; nullptr detaches).
  void set_lower_tier(LowerTier* lower) { lower_ = lower; }

  /// The index, shared with the L2 stripe (which purges its evictees'
  /// entries and restores its residents').
  [[nodiscard]] FingerprintTable& index() { return table_; }

  /// Re-admits a packet promoted back from the L2 at the MRU end under
  /// its original id and anchor list; its index entries never left.
  /// May evict (and therefore demote) LRU entries.  Statistics are not
  /// touched: promotion is tier bookkeeping, not a paper cache event.
  void readmit(const CachedPacket& pkt) { store_.reinsert(pkt); }

  /// Keeps new ids above a restored L2 resident's `id`.
  void reserve_ids_through(std::uint64_t id) {
    store_.reserve_ids_through(id);
  }

  /// Patches a restored packet's host-pair attribution (the tier
  /// snapshot stores host keys out of band to keep the BCC1 block
  /// byte-identical); no-op if the id is absent.
  void set_host_key(std::uint64_t id, std::uint64_t host_key) {
    store_.set_host_key(id, host_key);
  }

 private:
  void on_evict(const CachedPacket& pkt, EvictReason reason) override;

  /// find()/resolve() tail: the hit on `entry`, from either tier.
  std::optional<CacheHit> hit(rabin::Fingerprint fp, const FpEntry& entry);

  PacketStore store_;
  FingerprintTable table_;
  CacheStats stats_;
  LowerTier* lower_ = nullptr;
};

}  // namespace bytecache::cache
