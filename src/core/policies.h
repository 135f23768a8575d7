// The paper's encoding policies.
#pragma once

#include "core/params.h"
#include "core/policy.h"
#include "resilience/degradation.h"

namespace bytecache::core {

/// Spring & Wetherall's original algorithm (paper Fig. 2): encode against
/// anything cached.  Vulnerable to circular dependencies after one loss
/// (Section IV) — kept as the baseline whose failure the benches reproduce.
class NaivePolicy final : public EncodingPolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "naive"; }
  PolicyDecision before_encode(const PacketContext& ctx) override;
  [[nodiscard]] bool admit(const PacketContext& ctx,
                           const cache::PacketMeta& stored) const override;
};

/// Cache Flush (paper Section V-A): flush the encoder cache upon detecting
/// a TCP retransmission (PacketContext::retransmission), so retransmitted
/// segments are never encoded using a succeeding segment or themselves.
///
/// Deviation from the paper's one-line description: the paper triggers on
/// an observed *decrease* of the outgoing TCP sequence number; the
/// encoder's classification (FlowState::observe_seq) counts any
/// *non-increase*, because back-to-back retransmissions of the same
/// segment carry equal sequence numbers and a strict-decrease trigger would
/// let the second retransmission be encoded against the (possibly lost)
/// first — recreating the circular dependency the flush exists to break.
class CacheFlushPolicy final : public EncodingPolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "cache_flush"; }
  PolicyDecision before_encode(const PacketContext& ctx) override;
  [[nodiscard]] bool admit(const PacketContext& ctx,
                           const cache::PacketMeta& stored) const override;
};

/// TCP Sequence Number encoding (paper Section V-B, Fig. 7): a repeated
/// region is encoded only if the stored packet's TCP sequence number is
/// strictly lower than the current packet's (line B.7), so a segment is
/// never encoded using a succeeding segment or itself, without flushing.
class TcpSeqPolicy final : public EncodingPolicy {
 public:
  [[nodiscard]] std::string_view name() const override { return "tcp_seq"; }
  PolicyDecision before_encode(const PacketContext& ctx) override;
  [[nodiscard]] bool admit(const PacketContext& ctx,
                           const cache::PacketMeta& stored) const override;
};

/// k-distance encoding (paper Section V-C, Fig. 9): every k-th packet is a
/// reference sent unencoded; the following k-1 packets may be encoded using
/// the latest reference and any packet after it.  Bounds the loss cascade
/// to k packets and needs no TCP state, so it applies to UDP too.
///
/// For TCP traffic we additionally refuse to encode a segment against a
/// cached packet whose sequence number is not strictly lower (see
/// admit()) — otherwise timeout retransmissions self-reference their own
/// lost copies and each loss costs up to k-1 RTO backoffs, a pathology
/// absent from the paper's measurements.
class KDistancePolicy final : public EncodingPolicy {
 public:
  explicit KDistancePolicy(std::size_t k);

  [[nodiscard]] std::string_view name() const override { return "k_distance"; }
  PolicyDecision before_encode(const PacketContext& ctx) override;
  [[nodiscard]] bool admit(const PacketContext& ctx,
                           const cache::PacketMeta& stored) const override;

  [[nodiscard]] std::size_t k() const { return k_; }

  /// Changes k on the fly (used by AdaptivePolicy).
  void set_k(std::size_t k) { k_ = k; }

 private:
  std::size_t k_;
  std::uint64_t since_reference_ = 0;
  std::uint64_t last_reference_index_ = 0;
  bool sent_any_ = false;
};

/// Adaptive k-distance (the tune-able scheme the paper's conclusion calls
/// for): estimates the packet loss rate from observed TCP retransmissions
/// (EWMA of the retransmitted-packet fraction) and sets k ~= 1/(2*p_hat),
/// clamped to [k_min, k_max] — i.e. about half an expected loss per
/// reference interval.  Falls back to k_max when no loss has been seen.
class AdaptivePolicy final : public EncodingPolicy {
 public:
  explicit AdaptivePolicy(const DreParams& params);

  [[nodiscard]] std::string_view name() const override { return "adaptive"; }
  PolicyDecision before_encode(const PacketContext& ctx) override;
  [[nodiscard]] bool admit(const PacketContext& ctx,
                           const cache::PacketMeta& stored) const override;

  [[nodiscard]] double estimated_loss() const { return loss_estimate_; }
  [[nodiscard]] std::size_t current_k() const { return inner_.k(); }

 private:
  KDistancePolicy inner_;
  double alpha_;
  std::size_t k_min_;
  std::size_t k_max_;
  double loss_estimate_ = 0.0;
};

/// Adaptive resilience (DESIGN.md §9): the paper's Section VII argument
/// as a runtime control loop.  The per-host-pair DegradationController in
/// the encoder's loss table (PacketContext::host_pair) consumes the
/// perceived-loss EWMA — fed by the encoder gateway from link drop
/// reports and decoder loss reports (ControlMessage kLossReport) — and
/// walks the pair along the ladder
///
///     k-distance -> TCP-seq -> coded repair -> Cache Flush -> pass-through
///
/// as the estimate crosses the configured thresholds.  Each rung
/// delegates to the corresponding paper policy, so a flow under a
/// resilient encoder behaves exactly like that policy until the loss
/// picture changes.  Pairs with policy-kind kResilient and, usually,
/// params.epoch_resync for the decoder-side recovery half.
class ResilientPolicy final : public EncodingPolicy {
 public:
  explicit ResilientPolicy(const DreParams& params);

  [[nodiscard]] std::string_view name() const override { return "resilient"; }
  PolicyDecision before_encode(const PacketContext& ctx) override;
  [[nodiscard]] bool admit(const PacketContext& ctx,
                           const cache::PacketMeta& stored) const override;
  [[nodiscard]] bool reads_loss_table() const override { return true; }

 private:
  // The rung picked in before_encode(), read by admit() for the same
  // packet (the encoder always calls them in that order).
  resilience::DegradationLevel current_ =
      resilience::DegradationLevel::kKDistance;
  // One shared instance per rung.  Only k-distance keeps state (its
  // reference spacing), which persists across rung changes; the
  // retransmission classification every rung reads is the encoder's.
  KDistancePolicy k_distance_;
  TcpSeqPolicy tcp_seq_;
  CacheFlushPolicy cache_flush_;
};

}  // namespace bytecache::core
