// Byte-budgeted LRU store of packet payloads, backed by a slab of
// reusable slots.
//
// Both gateway caches hold full copies of recently seen payloads, keyed by
// a store-assigned id.  The store evicts least-recently-used payloads when
// a byte budget is exceeded.  Fingerprint-table entries pointing at an
// evicted payload are purged eagerly through the EvictionListener hook
// (CacheTier implements it); lazy invalidation at lookup time remains as
// defense in depth.  The paper sizes caches so eviction does not occur
// within an experiment; the budget exists so the library is usable
// long-running.
//
// Layout: entries live in a slot vector with intrusive prev/next links
// forming the LRU list (cache/recency_chain.h), a freelist recycles
// slots, and the id index is an open-addressing FlatMap64.  Payload
// bytes live in a SliceArena (cache/slice_arena.h): insert copies into
// a size-classed slice from a hugepage-friendly area, evict pushes the
// slice back on its freelist — both O(1), and steady-state insert/evict
// churn never touches the system allocator (an evicted slot additionally
// keeps its fingerprint list's capacity) — the "pooled packet store"
// half of the zero-allocation data plane.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cache/cache_config.h"
#include "util/flat_map.h"
#include "cache/recency_chain.h"
#include "cache/slice_arena.h"
#include "rabin/window.h"
#include "util/bytes.h"

namespace bytecache::cache {

/// Ids a store assigns stay below 2^48: the fingerprint index packs an
/// id and a 16-bit offset into one word (cache/fingerprint_table.h).
/// At 200k packets a second that is 44 years of one codec's traffic.
inline constexpr std::uint64_t kPacketIdLimit = std::uint64_t{1} << 48;

/// One selected fingerprint per 2^select_bits = 16 payload bytes at the
/// paper's parameters: the density the index and the anchor lists are
/// sized for.
inline constexpr std::size_t kBytesPerAnchor = 16;

/// Read-only view of a cached payload.  The bytes live in the store's
/// slice arena (or, transiently, a slot's heap fallback) and are valid
/// exactly as long as the owning CachedPacket is live — the same
/// lifetime the pointer returned by PacketStore::lookup already had.
/// Converts to util::BytesView wherever a plain byte span is wanted and
/// compares against any contiguous byte range (tests compare payloads to
/// util::Bytes literals directly).
class PayloadView {
 public:
  constexpr PayloadView() = default;
  constexpr PayloadView(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  [[nodiscard]] constexpr const std::uint8_t* data() const { return data_; }
  [[nodiscard]] constexpr std::size_t size() const { return size_; }
  [[nodiscard]] constexpr bool empty() const { return size_ == 0; }
  [[nodiscard]] constexpr const std::uint8_t* begin() const { return data_; }
  [[nodiscard]] constexpr const std::uint8_t* end() const {
    return data_ + size_;
  }
  constexpr std::uint8_t operator[](std::size_t i) const { return data_[i]; }

  // NOLINTNEXTLINE(google-explicit-constructor): drop-in span adaptation
  constexpr operator util::BytesView() const { return {data_, size_}; }

  friend bool operator==(const PayloadView& a, util::BytesView b) {
    return util::BytesView(a).size() == b.size() &&
           std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Per-payload metadata recorded at insert time, needed by the encoding
/// policies (paper Fig. 7 line C.6 stores the TCP sequence number; the
/// k-distance policy needs the position in the packet stream).
struct PacketMeta {
  /// TCP sequence number of the segment, if the payload is TCP.
  std::uint32_t tcp_seq = 0;
  /// One past the last sequence number the segment covers (seq + datalen).
  std::uint32_t tcp_end_seq = 0;
  bool has_tcp_seq = false;

  /// 0-based position of the packet in the encoder's stream.
  std::uint64_t stream_index = 0;

  /// Cache-flush epoch the packet was inserted under.
  std::uint32_t epoch = 0;

  /// uid of the simulated packet this payload came from (tracing only).
  std::uint64_t src_uid = 0;

  /// TCP flow the payload belongs to (see PacketContext::flow_key).
  std::uint64_t flow_key = 0;

  /// Unordered IP endpoint pair the packet traveled between
  /// (core::flow.h host_key_of; 0 = unattributed).  The L2 tier's
  /// per-host-pair budget charges against this key; it is symmetric, so
  /// encoder and decoder attribute identically and stay in lockstep.
  std::uint64_t host_key = 0;
};

struct CachedPacket {
  std::uint64_t id = 0;
  /// Views the slot's arena slice; see PayloadView for the lifetime.
  PayloadView payload;
  PacketMeta meta;
  /// Selected fingerprints recorded for this payload at insert time; the
  /// eviction purge erases exactly these from the fingerprint table.
  std::vector<rabin::Fingerprint> fps;
  /// Window start of each fingerprint (parallel to `fps`, 2 bytes per
  /// anchor; together the payload's full anchor set, in ascending offset
  /// order): a region copied out of this payload takes its interior
  /// anchors from here instead of rescanning (DESIGN.md §15).
  std::vector<std::uint16_t> offsets;

  /// Appends the anchors whose window starts lie in [first, last],
  /// shifted by `to - first` (the copied region's placement in the new
  /// payload).
  void copy_anchors(std::size_t first, std::size_t last, std::size_t to,
                    std::vector<rabin::Anchor>& out) const;
};

/// Reserves a fresh slot's anchor lists for a payload of `payload_bytes`
/// (its arena class, at kBytesPerAnchor), so later occupants of that
/// size fill them without touching the heap.
void reserve_anchor_lists(CachedPacket& pkt, std::size_t payload_bytes);

/// Deep check of one packet's anchor list (BC_AUDIT): fps and offsets
/// are parallel, strictly ascending and inside the payload.
void audit_anchor_list(const CachedPacket& pkt);

/// Why a packet is leaving the store.  The L2 tier demotes kBudget
/// victims (still warm, just crowded out) but must NOT resurrect
/// kExplicit ones (NACK invalidation names a packet the peer lost —
/// keeping a copy anywhere would re-diverge the caches).
enum class EvictReason : std::uint8_t {
  kBudget,    // LRU eviction to meet the byte budget
  kExplicit,  // erase(): NACK invalidation or another deliberate removal
};

/// Eviction hook: notified with each packet the store expels to meet its
/// byte budget or erases explicitly (NOT on clear(), whose callers reset
/// the whole cache).  Runs *before* the payload's arena slice is freed,
/// so a listener may still copy the bytes (the L1 -> L2 demotion path).
/// A plain interface rather than std::function keeps the hot path free
/// of type-erased dispatch and allocation (see tools/lint.py bc-hotpath).
class EvictionListener {
 public:
  virtual ~EvictionListener() = default;
  virtual void on_evict(const CachedPacket& pkt, EvictReason reason) = 0;
};

class PacketStore {
 public:
  /// Uses `config.l1_bytes` to bound the sum of stored payload sizes
  /// (0 = unbounded).  The other CacheConfig knobs belong to the layer
  /// above (CacheTier).
  explicit PacketStore(const CacheConfig& config = {});

  /// Registers the eviction hook (at most one; nullptr detaches).
  void set_evict_listener(EvictionListener* listener) {
    listener_ = listener;
  }

  /// Stores a payload copy under the next id (BC_CHECKed below
  /// kPacketIdLimit); returns the id.  May evict LRU entries (each
  /// reported to the eviction listener).  `anchors` is the payload's
  /// selected anchor set, retained (fingerprints and offsets) for the
  /// eviction purge and anchor reuse.
  std::uint64_t insert(util::BytesView payload, const PacketMeta& meta,
                       const std::vector<rabin::Anchor>& anchors = {});

  /// Returns the packet and marks it most-recently-used; nullptr if absent.
  [[nodiscard]] const CachedPacket* lookup(std::uint64_t id);

  /// Returns the packet without touching recency; nullptr if absent.
  [[nodiscard]] const CachedPacket* peek(std::uint64_t id) const;

  [[nodiscard]] bool contains(std::uint64_t id) const;

  /// Removes one packet (e.g. after a decoder NACK names it as lost),
  /// reporting it to the eviction listener so dependent fingerprint
  /// entries are purged.  Returns true if it was present.
  bool erase(std::uint64_t id);

  /// Drops everything (cache flush).  Slot buffers are retained for
  /// reuse; the eviction listener is NOT notified (callers reset the
  /// fingerprint table wholesale).
  void clear();

  [[nodiscard]] std::size_t size() const { return index_.size(); }

  /// Iterable view of the stored packets from most- to least-recently
  /// used (audits, telemetry and tests).
  class EntryView {
   public:
    class iterator {
     public:
      iterator(const PacketStore* store, std::uint32_t slot)
          : store_(store), slot_(slot) {}
      const CachedPacket& operator*() const {
        return store_->slots_[slot_].pkt;
      }
      const CachedPacket* operator->() const {
        return &store_->slots_[slot_].pkt;
      }
      iterator& operator++() {
        slot_ = store_->slots_[slot_].next;
        return *this;
      }
      bool operator==(const iterator& o) const { return slot_ == o.slot_; }
      bool operator!=(const iterator& o) const { return slot_ != o.slot_; }

     private:
      const PacketStore* store_;
      std::uint32_t slot_;
    };

    explicit EntryView(const PacketStore* store) : store_(store) {}
    [[nodiscard]] iterator begin() const {
      return iterator(store_, store_->lru_.head);
    }
    [[nodiscard]] iterator end() const { return iterator(store_, kNilSlot); }
    [[nodiscard]] std::size_t size() const { return store_->size(); }
    [[nodiscard]] const CachedPacket& front() const {
      return store_->slots_[store_->lru_.head].pkt;
    }

   private:
    const PacketStore* store_;
  };

  [[nodiscard]] EntryView entries() const { return EntryView(this); }

  /// Re-inserts `pkt` — a previously assigned id with its payload,
  /// metadata and anchor list — at the MRU end (the L2 -> L1 promotion
  /// path).  Exactly insert() except the id is the caller's: may evict
  /// LRU entries, reports them to the listener.  `pkt.id` must not be
  /// live and must have been assigned before (the id counter never moves
  /// backwards).
  void reinsert(const CachedPacket& pkt);

  /// Test seam: the next insert() assigns `id`.  Reaches states no
  /// traffic can build in a test's time: ids at the 48-bit limit, and
  /// (moved backwards) a duplicate id for the audits to catch.
  void set_next_id_for_test(std::uint64_t id) { next_id_ = id; }

  [[nodiscard]] std::size_t bytes_used() const { return bytes_used_; }
  [[nodiscard]] std::size_t byte_budget() const { return byte_budget_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

  /// The arena backing every stored payload (telemetry/tests).
  [[nodiscard]] const SliceArena& arena() const { return arena_; }

  /// First id the store has never handed out (all live ids are below it).
  [[nodiscard]] std::uint64_t next_id() const { return next_id_; }

  /// Deep invariant audit (BC_AUDIT; no-op unless the build enables
  /// audits): byte accounting equals the sum of stored payload sizes, the
  /// id index and the LRU chain are a bijection, live and free slots
  /// partition the slab, every id is one the store assigned, and the byte
  /// budget holds whenever eviction can enforce it.
  void audit() const;

 private:
  struct Slot {
    CachedPacket pkt;
    /// Arena slice holding pkt.payload's bytes (null when empty).
    SliceArena::Slice slice;
    std::uint32_t prev = kNilSlot;
    std::uint32_t next = kNilSlot;
    bool live = false;
  };
  using Lru = RecencyChain<&Slot::prev, &Slot::next>;

  /// Copies a packet's payload into a fresh arena slice in a fresh slot,
  /// indexed under `id` and chained at the MRU end; the anchor list is
  /// the caller's to fill.
  Slot& occupy(std::uint64_t id, util::BytesView payload,
               const PacketMeta& meta);
  void release_slot(std::uint32_t slot);
  void evict_to_budget();

  std::size_t byte_budget_;
  std::size_t bytes_used_ = 0;
  std::uint64_t next_id_ = 1;
  std::uint64_t evictions_ = 0;
  ChainEnds lru_;  // head = most recently used
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;       // recycled slot indices
  util::FlatMap64<std::uint32_t> index_;  // id -> slot
  SliceArena arena_;                      // payload byte storage
  EvictionListener* listener_ = nullptr;
};

}  // namespace bytecache::cache
