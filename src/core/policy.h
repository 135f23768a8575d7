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
// the verdict.
#pragma once

#include <cstdint>
#include <optional>

#include "cache/packet_store.h"

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
  /// set for every data packet.  The encoder's loss table keys its
  /// perceived-loss record by this — the same granularity the sharded
  /// gateways partition on, so feedback always reaches the shard owning
  /// the state.
  std::uint64_t host_key = 0;
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
};

class EncodingPolicy {
 public:
  virtual ~EncodingPolicy() = default;

  /// Called once per data packet before matching.
  virtual PolicyDecision before_encode(const PacketContext& ctx) = 0;

  /// Per-candidate admission: may the packet described by `ctx` be encoded
  /// using `stored`?
  [[nodiscard]] virtual bool admit(const PacketContext& ctx,
                                   const cache::PacketMeta& stored) const = 0;
};

}  // namespace bytecache::core
