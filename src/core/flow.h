// Flow identity: a mixed hash of the TCP 4-tuple.
//
// Used to key per-connection state (retransmission detection, sequence
// comparisons, ACK gating) inside the shared encoder.  The reverse
// direction of a connection maps to the forward key by swapping the
// endpoints before hashing.
#pragma once

#include <cstdint>

#include "util/rng.h"
#include "util/seqcmp.h"

namespace bytecache::core {

/// Key of the flow (src -> dst, sport -> dport).  Never returns 0
/// (reserved for "no flow").
[[nodiscard]] inline std::uint64_t flow_key_of(std::uint32_t src_ip,
                                               std::uint32_t dst_ip,
                                               std::uint16_t src_port,
                                               std::uint16_t dst_port) {
  std::uint64_t key = (std::uint64_t{src_ip} << 32) | dst_ip;
  key ^= (std::uint64_t{src_port} << 16 | dst_port) * 0x9E3779B97F4A7C15ull;
  const std::uint64_t mixed = util::splitmix64(key);
  return mixed == 0 ? 1 : mixed;
}

/// The encoder's one record per TCP flow.  Policies read the verdict it
/// produces (PacketContext::retransmission) and keep no flow state.
struct FlowState {
  std::uint32_t last_seq = 0;     // previous outgoing data segment
  std::uint32_t highest_ack = 0;  // highest reverse cumulative ACK
  bool has_last_seq = false;
  bool has_highest_ack = false;

  /// Records outgoing data segment `seq`; true if it is a retransmission,
  /// i.e. it does not advance past the *previous* segment (new data
  /// always advances).  Previous, not maximum: during go-back-N recovery
  /// only the jump back that starts the resend registers.
  bool observe_seq(std::uint32_t seq) {
    const bool retx = has_last_seq && !util::seq_gt(seq, last_seq);
    last_seq = seq;
    has_last_seq = true;
    return retx;
  }

  /// Records a reverse cumulative ACK; highest_ack only moves forward.
  void observe_ack(std::uint32_t ack) {
    if (has_highest_ack && !util::seq_gt(ack, highest_ack)) return;
    highest_ack = ack;
    has_highest_ack = true;
  }
};

/// Key of the *unordered* IP endpoint pair: both directions of every
/// connection between two hosts hash identically, so forward data,
/// reverse ACKs, and control packets all agree on it.  This is the
/// granularity of the sharded gateways (gateway/sharded_gateways.h) and
/// of the resilience layer's perceived-loss accounting — the decoder can
/// name only the IP pair of an undecodable packet, not its TCP ports,
/// because the transport header is inside the undecodable payload.
/// Never returns 0.
[[nodiscard]] inline std::uint64_t host_key_of(std::uint32_t ip_a,
                                               std::uint32_t ip_b) {
  const std::uint32_t lo = ip_a < ip_b ? ip_a : ip_b;
  const std::uint32_t hi = ip_a < ip_b ? ip_b : ip_a;
  std::uint64_t state = (std::uint64_t{hi} << 32) | lo;
  const std::uint64_t mixed = util::splitmix64(state);
  return mixed == 0 ? 1 : mixed;
}

}  // namespace bytecache::core
