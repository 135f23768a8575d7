// Construction surface of the cache subsystem.
//
// One struct describes every cache a codec owns: the hot per-shard L1
// (the slab/LRU PacketStore + FingerprintTable pair), the optional large
// shared L2 behind it (cache/l2_store.h), the per-host-pair admission
// budget inside the L2, the eviction policy, and how snapshots are
// taken.  Replaces the former positional byte-budget constructors
// (one per cache class, e.g. `PacketStore(std::size_t)`): every knob is
// named, a config travels through core::GatewayConfig unchanged, and an
// encoder-side/decoder-side pair built from the same config is
// guaranteed to run identical cache rules — the lockstep requirement.
#pragma once

#include <cstddef>
#include <cstdint>

namespace bytecache::cache {

/// Victim selection for the L2 tier (the L1 stays pure LRU — its
/// eviction order is part of the pinned wire-byte behavior).
enum class EvictionPolicy : std::uint8_t {
  /// Least-recently-used, the default: with l2_bytes == 0 this is
  /// bit-identical to the pre-tier flat cache.
  kLru,
  /// Frequency-aware (CLFU-style, for Zipf-shaped popularity): eviction
  /// scans a bounded window from the cold end, skips entries with a
  /// nonzero hit count (halving it, so staleness decays), and evicts the
  /// least-hit candidate.  Deterministic — no clocks, no randomness —
  /// so paired gateways still evolve in lockstep.
  kZipfAware,
};

/// How CacheTier::save emits snapshots.
enum class SnapshotMode : std::uint8_t {
  /// Every save() writes the full cache image.
  kFull,
  /// save() writes only the mutations since the previous save (a
  /// journal of insert/invalidate/flush ops, CRC-protected); falls back
  /// to a full image on the first save and when the journal overflows.
  kIncremental,
};

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

  /// L2 victim selection.
  EvictionPolicy eviction = EvictionPolicy::kLru;

  /// Snapshot strategy for CacheTier::save.
  SnapshotMode snapshot_mode = SnapshotMode::kFull;

  [[nodiscard]] constexpr bool has_l2() const { return l2_bytes > 0; }
};

}  // namespace bytecache::cache
