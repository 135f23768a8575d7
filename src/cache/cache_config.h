// Construction surface of the cache subsystem.
//
// One struct describes every cache a codec owns: the hot per-shard L1
// (the slab/LRU PacketStore + FingerprintTable pair), the optional large
// shared L2 behind it (cache/l2_store.h), and the per-host-pair
// admission budget inside the L2.  Both tiers evict least-recently-used
// first, so the budgets are the only knobs.  Replaces the former
// positional byte-budget constructors (one per cache class, e.g.
// `PacketStore(std::size_t)`): every knob is named, a config travels
// through core::GatewayConfig unchanged, and an encoder-side/decoder-side
// pair built from the same config is guaranteed to run identical cache
// rules — the lockstep requirement.
#pragma once

#include <cstddef>

namespace bytecache::cache {

struct CacheConfig {
  /// L1 byte budget: bounds the sum of payload bytes in the hot
  /// PacketStore (0 = unbounded, the paper's within-experiment setting).
  std::size_t l1_bytes = 0;

  /// L2 byte budget shared across every shard attached to one L2Store
  /// (0 = no L2 tier; budget-evicted L1 packets are simply dropped,
  /// exactly the flat pre-tier behavior).
  std::size_t l2_bytes = 0;

  /// Admission budget per host pair inside the L2: a host pair over this
  /// many bytes evicts its own coldest packets to admit new ones — never
  /// its neighbors' (0 = no per-pair budget).
  std::size_t per_host_pair_bytes = 0;

  [[nodiscard]] constexpr bool has_l2() const { return l2_bytes > 0; }
};

}  // namespace bytecache::cache
