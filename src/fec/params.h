// Knobs of the coded-repair layer (DESIGN.md §13).
#pragma once

#include <cstddef>
#include <cstdint>

namespace bytecache::fec {

/// Hard wire-format bounds: the repair header carries gen_size and the
/// per-member coefficient vector as single bytes, and the decoder tracks
/// membership in 64-bit masks (fec/wire.h, fec/decoder.h).
inline constexpr std::size_t kMaxGenerationPackets = 64;
inline constexpr std::size_t kMaxRepairPackets = 16;

/// Loss-sized repair (DESIGN.md §13.3).  A generation carries repairs
/// while one of its members' host pairs has shown loss within the last
/// kLossMemoryGenerations generations, and none once every member's path
/// has been clean that long.  A codec's start counts as a loss: its first
/// kLossMemoryGenerations generations carry repairs whatever the path
/// shows, since no path is known to be clean before it has been watched.
inline constexpr std::uint64_t kLossMemoryGenerations = 64;

/// A lossy generation's repair count is raised past repair_packets until
/// more losses than repairs among its members plus repairs is rarer than
/// this (binomial tail at the members' mean recent loss rate).
inline constexpr double kRepairTailTarget = 0.01;

struct RepairConfig {
  /// Data packets per generation (G).  Smaller generations recover
  /// faster (repairs arrive sooner after a loss) but spend more repair
  /// overhead per data byte.
  std::uint8_t generation_packets = 16;

  /// Coded repair packets per closed generation (R) while loss is seen
  /// and during a codec's start-up: any <= R lost members are
  /// reconstructed without a resync round-trip.  The encoder derives
  /// each generation's actual R from the loss its members' host pairs
  /// show — more when the estimates call for it (up to
  /// kMaxRepairPackets), none on a path clean for
  /// kLossMemoryGenerations, and at least one for a generation closed
  /// short, whose size only a repair can announce.
  std::uint8_t repair_packets = 2;

  /// Decoder: generations tracked concurrently (a ring; claiming a
  /// newer generation force-releases the release-cursor generation when
  /// the window is full).  Bounds the reorder cache's memory.
  std::uint16_t gen_window = 8;

  /// Decoder: arrivals from generations *newer* than the cursor that
  /// fail to advance it before the cursor generation is force-released
  /// with gaps (its own members and repairs never charge — they are
  /// still converging on a solve).  A generation no repair describes is
  /// taken to hold exactly generation_packets members, so a repair-free
  /// one retires on its last member and never charges this budget.
  /// Bounds both the re-sequencing depth
  /// and the latency an unrecoverable generation can add; the gaps then
  /// fall through to TCP recovery.  Must stay well under what a
  /// backing-off TCP sender can deliver before it declares the
  /// connection dead (tcp::TcpConfig's max_backoffs timeouts yield
  /// roughly 1 + repair_packets newer-generation arrivals each, since
  /// retransmissions are re-tagged into fresh generations): a buffered
  /// hole starves the very arrival stream that pays this budget, so too
  /// large a value turns one unlucky generation — member and all its
  /// repairs lost — into a connection abort.
  std::uint32_t blocked_arrival_budget = 12;
};

}  // namespace bytecache::fec
