#include "core/policies.h"

#include <algorithm>
#include <cmath>

#include "resilience/perceived_loss.h"
#include "util/check.h"
#include "util/seqcmp.h"

namespace bytecache::core {

// ---------------------------------------------------------------- Naive --

PolicyDecision NaivePolicy::before_encode(const PacketContext&) {
  return PolicyDecision{};
}

bool NaivePolicy::admit(const PacketContext&, const cache::PacketMeta&) const {
  return true;
}

// ----------------------------------------------------------- CacheFlush --

PolicyDecision CacheFlushPolicy::before_encode(const PacketContext& ctx) {
  PolicyDecision d;
  d.flush_cache = ctx.retransmission;
  d.is_retransmission = ctx.retransmission;
  return d;
}

bool CacheFlushPolicy::admit(const PacketContext&,
                             const cache::PacketMeta&) const {
  // The flush itself provides the guarantee; anything still cached is safe.
  return true;
}

// --------------------------------------------------------------- TcpSeq --

PolicyDecision TcpSeqPolicy::before_encode(const PacketContext& ctx) {
  PolicyDecision d;
  d.is_retransmission = ctx.retransmission;  // reported, not acted on
  return d;
}

bool TcpSeqPolicy::admit(const PacketContext& ctx,
                         const cache::PacketMeta& stored) const {
  // Non-TCP traffic has no ordering oracle: never encode.
  if (!ctx.tcp_seq || !stored.has_tcp_seq) return false;
  // Sequence numbers of *different* connections are incomparable, and a
  // segment can only be "a succeeding segment or itself" within its own
  // flow — cross-flow references are admissible (that is the inter-flow
  // redundancy byte caching exists for).
  if (stored.flow_key != ctx.flow_key) return true;
  // Paper Fig. 7 line B.7: encode only against a strictly preceding
  // segment of the same flow.
  return util::seq_lt(stored.tcp_seq, *ctx.tcp_seq);
}

// ------------------------------------------------------------ KDistance --

KDistancePolicy::KDistancePolicy(std::size_t k) : k_(k) {}

PolicyDecision KDistancePolicy::before_encode(const PacketContext& ctx) {
  PolicyDecision d;
  if (k_ <= 1 || !sent_any_ || since_reference_ + 1 >= k_) {
    // This packet is a reference: sent unencoded.
    d.allow_encode = false;
    d.is_reference = true;
    last_reference_index_ = ctx.stream_index;
    since_reference_ = 0;
    sent_any_ = true;
  } else {
    ++since_reference_;
  }
  return d;
}

bool KDistancePolicy::admit(const PacketContext& ctx,
                            const cache::PacketMeta& stored) const {
  // Only the latest reference and packets after it (paper Fig. 9).
  if (stored.stream_index < last_reference_index_) return false;
  // For TCP traffic, additionally never encode against the segment itself
  // or a succeeding one of the same flow: a timeout-retransmitted segment
  // always matches its own cached earlier copy, and if that copy was lost
  // every retransmission until the next reference would be undecodable —
  // an RTO backoff ladder the paper's measured k-distance results clearly
  // do not exhibit.  (UDP has no retransmissions, so pure k-distance
  // applies.)
  if (ctx.tcp_seq && stored.has_tcp_seq && stored.flow_key == ctx.flow_key &&
      !util::seq_lt(stored.tcp_seq, *ctx.tcp_seq)) {
    return false;
  }
  return true;
}

// ------------------------------------------------------------- Adaptive --

AdaptivePolicy::AdaptivePolicy(const DreParams& params)
    : inner_(params.adaptive_k_max),
      alpha_(params.adaptive_alpha),
      k_min_(params.adaptive_k_min),
      k_max_(params.adaptive_k_max) {}

PolicyDecision AdaptivePolicy::before_encode(const PacketContext& ctx) {
  const bool retx = ctx.retransmission;
  loss_estimate_ = (1.0 - alpha_) * loss_estimate_ + alpha_ * (retx ? 1.0 : 0.0);

  // k ~= 1/(2 * p): about half an expected channel loss per reference
  // interval; with no observed loss, compress as aggressively as allowed.
  std::size_t k = k_max_;
  if (loss_estimate_ > 1e-9) {
    k = static_cast<std::size_t>(std::lround(1.0 / (2.0 * loss_estimate_)));
    k = std::clamp(k, k_min_, k_max_);
  }
  inner_.set_k(k);

  PolicyDecision d = inner_.before_encode(ctx);
  d.is_retransmission = retx;
  return d;
}

bool AdaptivePolicy::admit(const PacketContext& ctx,
                           const cache::PacketMeta& stored) const {
  return inner_.admit(ctx, stored);
}

// ------------------------------------------------------------ Resilient --

ResilientPolicy::ResilientPolicy(const DreParams& params)
    : k_distance_(params.k_distance) {}

PolicyDecision ResilientPolicy::before_encode(const PacketContext& ctx) {
  BC_CHECK(ctx.host_pair != nullptr)
      << "the resilient policy needs the encoder's loss table";
  resilience::HostPairState& pair = *ctx.host_pair;
  current_ = pair.ladder.on_sample(pair.loss.ewma);
  switch (current_) {
    case resilience::DegradationLevel::kKDistance: {
      PolicyDecision d = k_distance_.before_encode(ctx);
      d.coded_repair = false;
      return d;
    }
    case resilience::DegradationLevel::kTcpSeq: {
      PolicyDecision d = tcp_seq_.before_encode(ctx);
      d.coded_repair = false;
      return d;
    }
    case resilience::DegradationLevel::kCodedRepair: {
      // TCP-seq encoding rules plus FEC over the encoded stream: the
      // encoder tags packets into generations and emits repairs, the
      // decoder reconstructs losses instead of resyncing.
      PolicyDecision d = tcp_seq_.before_encode(ctx);
      d.coded_repair = true;
      return d;
    }
    case resilience::DegradationLevel::kCacheFlush: {
      PolicyDecision d = cache_flush_.before_encode(ctx);
      d.coded_repair = false;
      return d;
    }
    case resilience::DegradationLevel::kPassthrough:
      break;
  }
  // Pass-through: the packet is sent unencoded (it still enters the
  // cache, keeping both ends warm for the upgrade back).
  PolicyDecision d;
  d.allow_encode = false;
  d.coded_repair = false;
  return d;
}

bool ResilientPolicy::admit(const PacketContext& ctx,
                            const cache::PacketMeta& stored) const {
  switch (current_) {
    case resilience::DegradationLevel::kKDistance:
      return k_distance_.admit(ctx, stored);
    case resilience::DegradationLevel::kTcpSeq:
    case resilience::DegradationLevel::kCodedRepair:
      return tcp_seq_.admit(ctx, stored);
    case resilience::DegradationLevel::kCacheFlush:
      return cache_flush_.admit(ctx, stored);
    case resilience::DegradationLevel::kPassthrough:
      break;
  }
  return false;  // pass-through never encodes
}

}  // namespace bytecache::core
