// Encoding-policy interface.
//
// The four algorithms of the paper (Naive — Spring & Wetherall's original,
// Fig. 2 — plus the three loss-robust variants of Section V) differ only
// in *when a packet may be encoded* and *which cached packets it may
// reference*.  Everything else (fingerprinting, matching, wire format,
// cache update) is shared by the Encoder.  A policy answers two questions:
//
//   1. before_encode(): may this packet be encoded at all, and should the
//      cache be flushed first?  (Cache Flush flushes on a retransmission;
//      k-distance declares every k-th packet a reference.)
//   2. admit(): may this packet reference that cached packet?  (TcpSeq
//      requires stored.seq < new.seq; k-distance requires the stored
//      packet to be at or after the latest reference.)
//
// Policies keep no per-flow or per-host-pair state: the encoder
// classifies retransmissions once per segment (core/flow.h) and hands in
// the verdict, and hands in the host pair's loss record.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "cache/packet_store.h"

namespace bytecache::resilience {
struct HostPairState;
}  // namespace bytecache::resilience

namespace bytecache::core {

/// What the encoder knows about the packet being processed.
struct PacketContext {
  /// TCP sequence number, if the payload is a TCP segment with data.
  std::optional<std::uint32_t> tcp_seq;

  /// 0-based position in the encoder's packet stream.
  std::uint64_t stream_index = 0;

  /// Payload (transport segment) size in bytes.
  std::size_t payload_size = 0;

  /// Identifies the TCP connection (hash of addresses and ports); 0 for
  /// non-TCP traffic.  Sequence-number comparisons are only meaningful
  /// within one flow, and byte caching serves many flows at once (the
  /// paper's inter-flow redundancy), so seq-based policies key their
  /// state by this.
  std::uint64_t flow_key = 0;

  /// The encoder's verdict (FlowState::observe_seq): this TCP data segment
  /// does not advance past its flow's previous one.  False for non-TCP.
  bool retransmission = false;

  /// Identifies the unordered IP endpoint pair (core::host_key_of);
  /// set for every data packet.  The resilience layer keys its
  /// perceived-loss estimate and degradation state by this — the same
  /// granularity the sharded gateways partition on, so feedback always
  /// reaches the shard owning the state.
  std::uint64_t host_key = 0;

  /// The encoder's loss-table record for host_key, this packet already
  /// counted as offered; null when the codec keeps no table (neither
  /// coded repair nor a policy that reads_loss_table()).
  resilience::HostPairState* host_pair = nullptr;
};

/// Decision made once per outgoing packet, before matching.
struct PolicyDecision {
  /// False: send the packet unencoded (it still enters the cache).
  bool allow_encode = true;

  /// True: flush the encoder cache before processing this packet.
  bool flush_cache = false;

  /// True: this packet is a k-distance reference (stats only).
  bool is_reference = false;

  /// True: the policy acts on PacketContext::retransmission (counted in
  /// stats, closes the coded-repair generation).  Naive and k-distance
  /// ignore retransmissions and leave it false.
  bool is_retransmission = false;

  /// False: the resilience ladder turned coded repair off for this host
  /// pair (only meaningful when DreParams::coded_repair is on; policies
  /// without a coded rung leave it true, so the knob alone decides).
  bool coded_repair = true;
};

class EncodingPolicy {
 public:
  virtual ~EncodingPolicy() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Called once per data packet before matching.
  virtual PolicyDecision before_encode(const PacketContext& ctx) = 0;

  /// Per-candidate admission: may the packet described by `ctx` be encoded
  /// using `stored`?
  [[nodiscard]] virtual bool admit(const PacketContext& ctx,
                                   const cache::PacketMeta& stored) const = 0;

  /// True: before_encode() reads PacketContext::host_pair, so the
  /// encoder must keep its per-host-pair loss table.
  [[nodiscard]] virtual bool reads_loss_table() const { return false; }
};

}  // namespace bytecache::core
