// Online perceived-loss estimation (paper Section VII).
//
// The paper's central measurement is that TCP reacts not to the channel
// loss rate but to the *perceived* loss rate: channel drops plus packets
// the decoder discards as undecodable.  This estimator maintains that
// quantity online, per host pair, from the encoder gateway's vantage
// point:
//
//   - every data packet offered to the codec is a success sample,
//   - every channel drop reported by the link layer is a failure sample,
//   - every undecodable packet reported back by the decoder on the
//     control channel (core::ControlMessage Type::kLossReport) is a
//     failure sample.
//
// A window over the recent samples tracks the fraction of transmissions
// that never reached the application.  Retransmissions only stamp the
// pair's loss clock: their drop is already a sample.  The table is the
// encoder's one record per host pair, kept under coded repair, which
// sizes each generation's repair count from it (DESIGN.md §13.3).
#pragma once

#include <cstdint>

#include "util/flat_map.h"

namespace bytecache::resilience {

/// Packets the recent-loss window spans: it halves its counts whenever
/// it reaches this many offered packets, so it covers the last half to
/// whole of them.
inline constexpr std::uint64_t kLossWindowPackets = 1024;

/// Per-host-pair estimator state.
struct FlowLossState {
  std::uint64_t offered = 0;
  std::uint64_t channel_drops = 0;
  std::uint64_t undecodable = 0;
  std::uint64_t retransmissions = 0;
  /// Offered packets and failure samples in the recent-loss window.
  std::uint64_t window_offered = 0;
  std::uint64_t window_failures = 0;
  /// The estimator's clock at the pair's latest loss signal (channel
  /// drop, undecodable report or retransmission); meaningless until
  /// lossy.
  std::uint64_t last_loss_clock = 0;
  bool lossy = false;

  /// Failure fraction over the recent-loss window.  Can exceed 1 when
  /// failures outrun offered packets (drops of repair packets, a dead
  /// path).
  [[nodiscard]] double recent_loss() const {
    return window_offered == 0 ? 0.0
                               : static_cast<double>(window_failures) /
                                     static_cast<double>(window_offered);
  }
};

class PerceivedLossEstimator {
 public:
  /// A data packet of `host_key` was offered to the codec (success
  /// sample).  Returns the pair's record, valid until the next call that
  /// adds a pair.
  FlowLossState& on_offered(std::uint64_t host_key);

  /// The link reported dropping a packet of `host_key` (failure sample).
  void on_channel_drop(std::uint64_t host_key);

  /// The decoder reported `count` undecodable packets of `host_key`
  /// (failure samples).
  void on_undecodable(std::uint64_t host_key, std::uint32_t count = 1);

  /// The encoding policy acted on a retransmission of `pair`'s: loss
  /// evidence that stamps the loss clock but is no failure sample.
  void on_retransmission(FlowLossState& pair);

  /// Sets the clock loss signals are stamped with.  The owner advances
  /// it (core::Encoder: one tick per closed repair generation).
  void set_clock(std::uint64_t now) { clock_ = now; }

  /// Clock ticks since `s` last showed loss; UINT64_MAX if it never has.
  [[nodiscard]] std::uint64_t since_loss(const FlowLossState& s) const;

  /// Full state for `host_key`, or nullptr if never sampled.
  [[nodiscard]] const FlowLossState* flow(std::uint64_t host_key) const {
    return pairs_.find(host_key);
  }

  /// Every host pair's record, keyed by host key.
  [[nodiscard]] const util::FlatMap64<FlowLossState>& pairs() const {
    return pairs_;
  }

  [[nodiscard]] std::size_t flows() const { return pairs_.size(); }
  [[nodiscard]] std::uint64_t total_offered() const { return total_offered_; }
  [[nodiscard]] std::uint64_t total_channel_drops() const {
    return total_channel_drops_;
  }
  [[nodiscard]] std::uint64_t total_undecodable() const {
    return total_undecodable_;
  }
  [[nodiscard]] std::uint64_t total_retransmissions() const {
    return total_retransmissions_;
  }

  /// Deep invariant audit (BC_AUDIT; no-op unless the build enables
  /// audits): every window stays within its bounds, and the per-pair
  /// counters sum to the totals.
  void audit() const;

 private:
  /// Records `failures` loss samples' evidence: the window count and the
  /// loss clock stamp.
  void stamp(FlowLossState& s, std::uint64_t failures) const;

  util::FlatMap64<FlowLossState> pairs_;
  std::uint64_t total_offered_ = 0;
  std::uint64_t total_channel_drops_ = 0;
  std::uint64_t total_undecodable_ = 0;
  std::uint64_t total_retransmissions_ = 0;
  std::uint64_t clock_ = 0;
};

}  // namespace bytecache::resilience
