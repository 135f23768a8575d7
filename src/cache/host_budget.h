// Per-host-pair byte accounting for the L2 tier (cache/l2_store.h).
//
// The ROADMAP's million-user scenario fails exactly when one elephant
// host pair is allowed to evict everyone: a flat LRU shares one budget,
// so a single high-churn pair cycles the whole cache and every mouse's
// hit rate collapses.  The ledger tracks bytes per unordered IP endpoint
// pair (core::host_key_of, carried in PacketMeta::host_key) and the head
// and tail of each pair's intrusive recency chain through the L2 slots,
// so admission control can evict *that pair's own* coldest packets — and
// only ever that pair's — when it runs over its budget.
//
// Backed by FlatMap64 (no per-entry allocation on the demotion path);
// idle pairs are erased as soon as their last packet leaves, so the
// ledger's size tracks the live pair count, not the historical one.
#pragma once

#include <cstdint>

#include "util/flat_map.h"
#include "cache/recency_chain.h"

namespace bytecache::cache {

struct HostEntry {
  /// Payload bytes this pair currently holds in the stripe.
  std::size_t bytes = 0;
  /// Per-pair recency chain through the stripe's slots (head = warmest,
  /// tail = coldest).  The slot links themselves live in the stripe
  /// (L2Store::Slot::{host_prev,host_next}).
  ChainEnds chain;
  /// Packets this pair evicted of its own to stay under budget.
  std::uint64_t evictions = 0;
};

class HostLedger {
 public:
  /// The entry for `host_key`, created zeroed if absent.  The pointer is
  /// valid only until the next obtain/release (open addressing moves).
  HostEntry* obtain(std::uint64_t host_key);

  /// The entry for `host_key`, or nullptr (same stability caveat).
  [[nodiscard]] HostEntry* find(std::uint64_t host_key) {
    return map_.find(host_key);
  }
  [[nodiscard]] const HostEntry* find(std::uint64_t host_key) const {
    return map_.find(host_key);
  }

  /// Drops the entry once it is empty (bytes == 0 and no chained slots);
  /// no-op otherwise.
  void release_if_idle(std::uint64_t host_key);

  void clear() { map_.clear(); }

  /// Live host pairs (pairs currently holding at least one packet).
  [[nodiscard]] std::size_t pairs() const { return map_.size(); }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    map_.for_each(fn);
  }

 private:
  util::FlatMap64<HostEntry> map_;
};

}  // namespace bytecache::cache
