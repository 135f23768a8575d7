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
// An EWMA over these {0,1} samples tracks the fraction of transmissions
// that never reached the application.  A packet that is eventually
// dropped contributes both its success sample (when offered) and a
// failure sample (when the drop is reported), so the estimate converges
// to p/(1+p) rather than p — an under-estimate of at most p^2, well
// inside the threshold granularity of the DegradationController that
// consumes it.
//
// The estimator's table is the resilience layer's one record per host
// pair: the loss state plus the pair's DegradationController.
#pragma once

#include <cstdint>

#include "resilience/degradation.h"
#include "util/flat_map.h"

namespace bytecache::resilience {

struct LossEstimatorConfig {
  /// EWMA weight of one sample.  0.05 reacts within ~20 packets while
  /// still smoothing over individual bursts.
  double alpha = 0.05;
};

/// Per-host-pair estimator state.
struct FlowLossState {
  double ewma = 0.0;
  std::uint64_t offered = 0;
  std::uint64_t channel_drops = 0;
  std::uint64_t undecodable = 0;
};

/// Everything the resilience layer keeps per host pair.
struct HostPairState {
  FlowLossState loss;
  DegradationController ladder{DegradationConfig{}};
};

class PerceivedLossEstimator {
 public:
  /// `ladder` configures the DegradationController of every new pair.
  explicit PerceivedLossEstimator(const LossEstimatorConfig& config = {},
                                  const DegradationConfig& ladder = {});

  /// A data packet of `host_key` was offered to the codec (success
  /// sample).  Returns the pair's record, valid until the next call that
  /// adds a pair.
  HostPairState& on_offered(std::uint64_t host_key);

  /// The link reported dropping a packet of `host_key` (failure sample).
  void on_channel_drop(std::uint64_t host_key);

  /// The decoder reported `count` undecodable packets of `host_key`
  /// (failure samples).
  void on_undecodable(std::uint64_t host_key, std::uint32_t count = 1);

  /// Current perceived-loss estimate for `host_key`; 0 if never sampled.
  [[nodiscard]] double loss(std::uint64_t host_key) const;

  /// Worst estimate across all tracked host pairs (0 if none).
  [[nodiscard]] double max_loss() const;

  /// Full state for `host_key`, or nullptr if never sampled.
  [[nodiscard]] const FlowLossState* flow(std::uint64_t host_key) const;

  /// Every host pair's record, keyed by host key.
  [[nodiscard]] const util::FlatMap64<HostPairState>& pairs() const {
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

  /// Deep invariant audit (BC_AUDIT; no-op unless the build enables
  /// audits): every EWMA is a probability, every ladder passes its own
  /// audit, and the per-pair counters sum to the totals.
  void audit() const;

 private:
  HostPairState& pair_for(std::uint64_t host_key);
  void sample(FlowLossState& s, double outcome) const;

  LossEstimatorConfig config_;
  DegradationConfig ladder_;
  util::FlatMap64<HostPairState> pairs_;
  std::uint64_t total_offered_ = 0;
  std::uint64_t total_channel_drops_ = 0;
  std::uint64_t total_undecodable_ = 0;
};

}  // namespace bytecache::resilience
