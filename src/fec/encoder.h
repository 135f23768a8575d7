// Encoder half of the coded-repair layer (DESIGN.md §13).
//
// Groups the wire images of outgoing v3-tagged packets into generations
// of up to G members.  When a generation closes — full, or early on a
// TCP retransmission / rung change / teardown — R coded repair payloads
// are emitted: GF(256) linear combinations of the member symbols under
// the Cauchy coefficients of fec/gf256.h.  R is derived per generation
// from the loss its members' paths have shown (DESIGN.md §13.3): zero on
// a clean path, repair_packets or more on a lossy one.  Every buffer is
// reused scratch (one contiguous member arena, fixed emission slots), so
// the steady state allocates nothing (bc-hotpath-alloc).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "fec/params.h"
#include "fec/wire.h"
#include "obs/fields.h"
#include "obs/metrics.h"
#include "util/bytes.h"

namespace bytecache::fec {

struct RepairEncoderStats {
  std::uint64_t members = 0;          // symbols added to generations
  std::uint64_t generations = 0;      // generations closed
  std::uint64_t early_closes = 0;     // closed before reaching G members
  std::uint64_t repair_payloads = 0;  // repair payloads emitted
  std::uint64_t repair_bytes = 0;     // their total wire bytes
};

/// Telemetry field table (obs/fields.h): drives the generic merge_into /
/// reset / snapshot operations and the registry metric names.
[[nodiscard]] constexpr auto stats_fields(const RepairEncoderStats*) {
  using S = RepairEncoderStats;
  return obs::field_table<S>(
      obs::Field<S>{"members", &S::members},
      obs::Field<S>{"generations", &S::generations},
      obs::Field<S>{"early_closes", &S::early_closes},
      obs::Field<S>{"repair_payloads", &S::repair_payloads},
      obs::Field<S>{"repair_bytes", &S::repair_bytes});
}

using obs::merge_into;
using obs::reset;

/// What the codec knows about a member's path when the member joins a
/// generation.  The default describes a path that has just shown loss:
/// the conservative choice for a caller without a loss table, whose
/// generations then all carry repair_packets repairs.
struct MemberLoss {
  double estimate = 0.0;                // the host pair's recent loss rate
  std::uint64_t clean_generations = 0;  // since the pair last showed loss
};

/// Repairs a generation of `members` packets needs so that, with every
/// member and repair lost independently at `mean_loss`, more losses than
/// repairs is rarer than kRepairTailTarget; capped at kMaxRepairPackets.
[[nodiscard]] std::uint8_t loss_sized_repairs(std::size_t members,
                                              double mean_loss);

class RepairEncoder {
 public:
  explicit RepairEncoder(const RepairConfig& cfg);

  struct Tag {
    std::uint16_t gen_id = 0;
    std::uint8_t gen_seq = 0;
  };

  /// Starts a packet: the previous packet's emitted() span dies here.
  void begin_packet();

  /// Claims the next slot of the open generation (opening one if
  /// needed).  The tag goes into the packet's v3 shim *before* the
  /// finished wire image is recorded with add_member().
  [[nodiscard]] Tag next_tag();

  /// Records the finished wire image (IP header + encoded payload) of
  /// the packet tagged by the preceding next_tag() call, with what is
  /// known of its path's loss; closes the generation — emitting its
  /// repairs — when it reaches G members.
  void add_member(util::BytesView wire_image, const MemberLoss& loss = {});

  /// Closes the open generation early (TCP retransmission, rung change,
  /// teardown); no-op when no generation is open.
  void close_generation();

  /// Loss was seen while a generation is open: it is sized as lossy,
  /// since the lost packet may be one of its members.
  void note_loss() {
    if (member_count_ > 0) lossy_ = true;
  }

  /// Repair payloads emitted since begin_packet(), oldest first.  The
  /// spanned buffers stay valid until the next begin_packet().
  [[nodiscard]] std::span<const util::Bytes> emitted() const {
    return {emitted_.data(), emitted_count_};
  }

  [[nodiscard]] bool generation_open() const { return member_count_ > 0; }
  [[nodiscard]] const RepairEncoderStats& stats() const { return stats_; }

  /// R of every closed generation.
  [[nodiscard]] const obs::Histogram& repairs_per_generation() const {
    return repairs_hist_;
  }

  /// Deep invariant audit (BC_AUDIT; no-op unless the build enables
  /// audits).
  void audit() const;

 private:
  [[nodiscard]] std::uint8_t repair_count() const;
  void emit_repairs(std::uint8_t count);

  RepairConfig cfg_;
  RepairEncoderStats stats_;
  obs::Histogram repairs_hist_;
  std::uint16_t gen_id_ = 0;       // id of the open (or next) generation
  std::uint8_t member_count_ = 0;  // members recorded in the open one
  bool tag_pending_ = false;       // next_tag() issued, add_member() due
  std::uint16_t max_len_ = 0;      // longest member wire image so far
  double loss_sum_ = 0.0;          // members' summed loss rates
  bool lossy_ = false;             // a member's path showed loss lately

  // Member wire images live concatenated in one arena; member i spans
  // [offsets_[i], offsets_[i+1]).
  util::Bytes arena_;
  std::array<std::uint32_t, kMaxGenerationPackets + 1> offsets_{};

  // Fixed emission slots (two closes can happen within one packet: an
  // early close at the retransmission decision plus a full close after
  // the packet itself is added), their capacity reused across closes.
  std::vector<util::Bytes> emitted_;
  std::size_t emitted_count_ = 0;
  RepairPacket scratch_;  // header/coeff/symbol build scratch
};

}  // namespace bytecache::fec
