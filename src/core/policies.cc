#include "core/policies.h"

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

}  // namespace bytecache::core
