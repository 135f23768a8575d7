// Decoder half of the coded-repair layer (DESIGN.md §13).
//
// Sits in front of the DRE core decoder, which only stays cache-synced
// when packets reach it in encoder order.  The RepairDecoder therefore
// does two jobs with one structure:
//
//   * reorder cache — arrivals are buffered per generation in a ring of
//     gen_window generation records and released strictly in (gen_id,
//     gen_seq) order from a serial-number release cursor, so plain
//     reordering never arms an EpochSynchronizer resync;
//   * loss repair — each generation record runs an incremental Gaussian
//     elimination: repair rows are reduced by known member symbols on
//     either arrival order, and once the buffered rows cover the missing
//     members the system is solved and the lost packets reconstructed
//     byte-exactly, without a resync round-trip.
//
// A generation no repair describes is taken to hold exactly G members:
// the encoder announces every short generation with at least one repair,
// so a repair-free generation on a clean path retires on its last member.
//
// Liveness is bounded, never assumed: a generation proven unrecoverable
// (every repair seen, still short of rows) is force-released at once,
// and any cursor generation is force-released after
// blocked_arrival_budget arrivals without release progress — its gaps
// then fall through to ordinary TCP recovery.  Corrupted repairs fail
// their CRC at parse; a corrupted reconstruction degrades to a shim-CRC
// drop in the core decoder (the correctness backstop).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "fec/params.h"
#include "fec/wire.h"
#include "obs/fields.h"
#include "packet/packet.h"
#include "util/bytes.h"

namespace bytecache::fec {

struct RepairDecoderStats {
  std::uint64_t data_packets = 0;       // v3-tagged data arrivals
  std::uint64_t repair_packets = 0;     // repairs parsed clean
  std::uint64_t repairs_malformed = 0;  // parse/CRC/consistency failures
  std::uint64_t repairs_redundant = 0;  // duplicate or already-passed
  std::uint64_t released = 0;           // packets released in order
  std::uint64_t resequenced = 0;        // of those: sat in the buffer
  std::uint64_t reconstructed = 0;      // of those: rebuilt from repairs
  std::uint64_t reconstruct_failed = 0; // solved symbol failed sanity
  std::uint64_t late_delivered = 0;     // passed the cursor, let through
  std::uint64_t duplicates = 0;         // suppressed re-arrivals
  std::uint64_t tag_rejects = 0;        // impossible gen_seq, let through
  std::uint64_t generations_completed = 0;
  std::uint64_t generations_abandoned = 0;  // force-released
  std::uint64_t forced_releases = 0;
  std::uint64_t solves = 0;          // successful eliminations
  std::uint64_t solve_deferred = 0;  // rank-deficient, kept waiting
};

[[nodiscard]] constexpr auto stats_fields(const RepairDecoderStats*) {
  using S = RepairDecoderStats;
  return obs::field_table<S>(
      obs::Field<S>{"data_packets", &S::data_packets},
      obs::Field<S>{"repair_packets", &S::repair_packets},
      obs::Field<S>{"repairs_malformed", &S::repairs_malformed},
      obs::Field<S>{"repairs_redundant", &S::repairs_redundant},
      obs::Field<S>{"released", &S::released},
      obs::Field<S>{"resequenced", &S::resequenced},
      obs::Field<S>{"reconstructed", &S::reconstructed},
      obs::Field<S>{"reconstruct_failed", &S::reconstruct_failed},
      obs::Field<S>{"late_delivered", &S::late_delivered},
      obs::Field<S>{"duplicates", &S::duplicates},
      obs::Field<S>{"tag_rejects", &S::tag_rejects},
      obs::Field<S>{"generations_completed", &S::generations_completed},
      obs::Field<S>{"generations_abandoned", &S::generations_abandoned},
      obs::Field<S>{"forced_releases", &S::forced_releases},
      obs::Field<S>{"solves", &S::solves},
      obs::Field<S>{"solve_deferred", &S::solve_deferred});
}

using obs::merge_into;
using obs::reset;

class RepairDecoder {
 public:
  explicit RepairDecoder(const RepairConfig& cfg);

  /// One packet handed downstream; `reconstructed` marks packets rebuilt
  /// from repair rows rather than received natively.
  struct Released {
    packet::PacketPtr pkt;
    bool reconstructed = false;
  };

  /// Feeds a v3-tagged data packet (tag peeked from its shim by the
  /// gateway).  Packets ready for in-order delivery are appended to
  /// `out`.
  void on_data(std::uint16_t gen_id, std::uint8_t gen_seq,
               packet::PacketPtr pkt, std::vector<Released>& out);

  /// Feeds a repair payload (magic 0xD7).  Reconstructions it unlocks
  /// are appended to `out` in order.
  void on_repair(util::BytesView payload, std::vector<Released>& out);

  /// Releases everything still buffered, oldest generation first
  /// (teardown / rung turn-off; gaps stay gaps).
  void drain(std::vector<Released>& out);

  /// Data packets currently held in the reorder cache.
  [[nodiscard]] std::size_t buffered() const { return held_count_; }

  [[nodiscard]] const RepairDecoderStats& stats() const { return stats_; }

  /// Deep invariant audit (BC_AUDIT; no-op unless the build enables
  /// audits).
  void audit() const;

 private:
  struct Row {
    std::array<std::uint8_t, kMaxGenerationPackets> coeff{};
    util::Bytes sym;
  };

  /// One tracked generation.  After retiring, the record stays in its
  /// ring slot with active=false as a tombstone: its delivered_mask
  /// suppresses duplicate re-arrivals of already-released packets.
  struct Generation {
    std::uint16_t id = 0;
    bool active = false;
    std::uint8_t size = 0;  // 0 until the first repair announces it
    std::uint8_t repair_total = 0;
    std::uint16_t symbol_len = 0;
    std::uint8_t next_seq = 0;  // next in-order seq to release
    std::uint64_t known_mask = 0;          // symbol present in the arena
    std::uint64_t delivered_mask = 0;      // released downstream
    std::uint64_t reconstructed_mask = 0;  // rebuilt, not native
    std::uint32_t repair_seen_mask = 0;
    std::uint8_t rows_used = 0;
    util::Bytes arena;  // member wire images, concatenated
    std::array<std::uint32_t, kMaxGenerationPackets> arena_off{};
    std::array<std::uint16_t, kMaxGenerationPackets> arena_len{};
    std::array<packet::PacketPtr, kMaxGenerationPackets> held{};
    std::vector<Row> rows;  // buffered repair rows, capacity reused
  };

  [[nodiscard]] Generation& slot(std::uint16_t id) {
    return gens_[id % gens_.size()];
  }
  [[nodiscard]] const Generation& slot(std::uint16_t id) const {
    return gens_[id % gens_.size()];
  }

  /// Members of `g`: as its repairs announce, else exactly G — an
  /// encoder sends at least one repair for every generation it closes
  /// short, so a repair-free one retires on its last member.
  [[nodiscard]] std::uint8_t members(const Generation& g) const {
    return g.size != 0 ? g.size : cfg_.generation_packets;
  }

  /// Missing-member mask of a size-known generation.
  [[nodiscard]] static std::uint64_t missing_mask(const Generation& g) {
    const std::uint64_t all = g.size >= 64
                                  ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << g.size) - 1;
    return all & ~g.known_mask;
  }

  Generation& claim(std::uint16_t id, std::vector<Released>& out);
  void store_symbol(Generation& g, std::uint8_t seq, const packet::Packet& p);
  void reduce_rows(Generation& g, std::uint8_t seq);
  void try_solve(Generation& g);
  void release_ready(std::vector<Released>& out);
  void force_release_cursor(std::vector<Released>& out);
  void retire(Generation& g, bool completed);
  void after_arrival(std::size_t out_before, std::uint16_t cursor_before,
                     std::uint16_t arrival_gen, std::vector<Released>& out);

  RepairConfig cfg_;
  RepairDecoderStats stats_;
  std::vector<Generation> gens_;  // ring of gen_window records
  std::uint16_t cursor_ = 0;      // oldest generation not fully released
  bool cursor_locked_ = false;    // cursor_ meaningless before 1st arrival
  std::uint32_t blocked_ = 0;     // arrivals since the last release
  std::size_t held_count_ = 0;

  // The arrival being processed, so release_ready can tell a packet
  // that flowed straight through from one pulled out of the buffer.
  bool arrival_is_data_ = false;
  std::uint16_t arrival_gen_ = 0;
  std::uint8_t arrival_seq_ = 0;

  RepairPacket scratch_;      // repair parse scratch
  util::Bytes wire_scratch_;  // member wire-image scratch
};

}  // namespace bytecache::fec
