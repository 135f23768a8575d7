// The paper's encoding policies.
#pragma once

#include "core/policy.h"

namespace bytecache::core {

/// Spring & Wetherall's original algorithm (paper Fig. 2): encode against
/// anything cached.  Vulnerable to circular dependencies after one loss
/// (Section IV) — kept as the baseline whose failure the benches reproduce.
class NaivePolicy final : public EncodingPolicy {
 public:
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

  PolicyDecision before_encode(const PacketContext& ctx) override;
  [[nodiscard]] bool admit(const PacketContext& ctx,
                           const cache::PacketMeta& stored) const override;

 private:
  std::size_t k_;
  std::uint64_t since_reference_ = 0;
  std::uint64_t last_reference_index_ = 0;
  bool sent_any_ = false;
};

}  // namespace bytecache::core
