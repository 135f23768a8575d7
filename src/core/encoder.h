// The DRE encoder (paper Fig. 2 / Fig. 7).
//
// Processes outgoing IP packets in order.  For each data-bearing packet it
// (a) asks the policy whether encoding is allowed (and whether to flush),
// (b) scans the payload for selected Rabin fingerprints, looks them up in
// the byte cache, verifies and maximally expands each hit, substitutes
// regions longer than min_region with 14-byte encoding fields, and
// (c) always runs the cache-update procedure over the *original* payload
// so the decoder (doing the same on what it reconstructs) stays in sync.
//
// A packet is rewritten in place only if the encoded form is strictly
// smaller than the original (shim + field overhead could otherwise inflate
// small matches); the IP protocol field is rewritten to IpProto::kDre to
// signal the shim.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "cache/cache_tier.h"
#include "core/anchors.h"
#include "core/flow.h"
#include "core/params.h"
#include "core/policy.h"
#include "core/region.h"
#include "core/wire.h"
#include "fec/encoder.h"
#include "obs/fields.h"
#include "packet/packet.h"
#include "rabin/window.h"
#include "resilience/perceived_loss.h"
#include "util/flat_map.h"

namespace bytecache::core {

/// Per-packet outcome, for tracing and dependency analysis.
struct EncodeInfo {
  std::uint64_t uid = 0;        // simulation uid of the processed packet
  bool data_packet = false;     // considered by the codec at all
  bool encoded = false;         // payload replaced by the shim form
  bool reference = false;       // k-distance reference
  bool retransmission = false;  // policy acted on a TCP retransmission
  bool flushed = false;         // cache flushed before this packet
  std::size_t regions = 0;
  std::size_t original_size = 0;  // payload bytes before encoding
  std::size_t sent_size = 0;      // payload bytes actually sent
  /// uids of the distinct cached packets this packet was encoded against.
  std::vector<std::uint64_t> deps;
  /// Coded repair payloads emitted while processing this packet
  /// (params.coded_repair): the caller sends them right after the packet
  /// itself.  Views into encoder-owned scratch — valid only until the
  /// next process() call, so burst callers must consume per packet.
  std::span<const util::Bytes> repairs;
};

struct EncoderStats {
  std::uint64_t packets = 0;
  std::uint64_t data_packets = 0;
  std::uint64_t encoded_packets = 0;
  std::uint64_t references = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t flushes = 0;
  std::uint64_t regions = 0;
  std::uint64_t bytes_in = 0;   // payload bytes offered
  std::uint64_t bytes_out = 0;  // payload bytes sent
  std::uint64_t nacks_received = 0;
  std::uint64_t nack_invalidations = 0;
  std::uint64_t ack_gate_rejections = 0;  // matches skipped as un-ACKed
  std::uint64_t resync_requests = 0;      // decoder resync requests received
  std::uint64_t resyncs_honored = 0;      // ... that triggered a flush
  /// Sum over encoded packets of the number of distinct packets referenced
  /// (avg dependencies = dependency_links / encoded_packets; the paper's
  /// File 1 / File 2 differ on exactly this statistic).
  std::uint64_t dependency_links = 0;

  [[nodiscard]] std::uint64_t bytes_saved() const {
    return bytes_in - bytes_out;
  }
};

/// Telemetry field table (obs/fields.h): drives the generic merge_into /
/// reset / snapshot operations and the registry metric names.
[[nodiscard]] constexpr auto stats_fields(const EncoderStats*) {
  using S = EncoderStats;
  return obs::field_table<S>(
      obs::Field<S>{"packets", &S::packets},
      obs::Field<S>{"data_packets", &S::data_packets},
      obs::Field<S>{"encoded_packets", &S::encoded_packets},
      obs::Field<S>{"references", &S::references},
      obs::Field<S>{"retransmissions", &S::retransmissions},
      obs::Field<S>{"flushes", &S::flushes},
      obs::Field<S>{"regions", &S::regions},
      obs::Field<S>{"bytes_in", &S::bytes_in},
      obs::Field<S>{"bytes_out", &S::bytes_out},
      obs::Field<S>{"nacks_received", &S::nacks_received},
      obs::Field<S>{"nack_invalidations", &S::nack_invalidations},
      obs::Field<S>{"ack_gate_rejections", &S::ack_gate_rejections},
      obs::Field<S>{"resync_requests", &S::resync_requests},
      obs::Field<S>{"resyncs_honored", &S::resyncs_honored},
      obs::Field<S>{"dependency_links", &S::dependency_links});
}

/// Generic aggregation across the per-shard encoders of a sharded
/// gateway (gateway/sharded_gateways.h).
using obs::merge_into;
using obs::reset;

class Encoder {
 public:
  /// `cache` sizes the tier (cache/cache_config.h; the default is the
  /// paper's unbounded flat cache).  `l2` is the gateway's shared L2
  /// store, or nullptr for an L1-only codec; when given, it must have an
  /// unclaimed stripe and outlive the encoder.
  Encoder(const DreParams& params, std::unique_ptr<EncodingPolicy> policy,
          const cache::CacheConfig& cache = {},
          cache::L2Store* l2 = nullptr);

  /// Processes one outgoing packet in place.
  EncodeInfo process(packet::Packet& pkt);

  [[nodiscard]] const EncoderStats& stats() const { return stats_; }
  [[nodiscard]] const fec::RepairEncoderStats& repair_stats() const {
    return repair_enc_.stats();
  }
  /// R of every closed coded-repair generation.
  [[nodiscard]] const obs::Histogram& repairs_per_generation() const {
    return repair_enc_.repairs_per_generation();
  }
  /// The per-host-pair loss table (DESIGN.md §13.3), or null: it is kept
  /// exactly when params.coded_repair is on.
  [[nodiscard]] const resilience::PerceivedLossEstimator* loss_table() const {
    return loss_.get();
  }
  [[nodiscard]] resilience::PerceivedLossEstimator* loss_table() {
    return loss_.get();
  }
  [[nodiscard]] const EncodingPolicy& policy() const { return *policy_; }
  [[nodiscard]] EncodingPolicy& policy() { return *policy_; }
  [[nodiscard]] const cache::CacheTier& cache() const { return cache_; }
  [[nodiscard]] std::uint16_t epoch() const { return epoch_; }
  [[nodiscard]] const DreParams& params() const { return params_; }

  /// Flushes the cache (also exposed for tests and manual control).
  /// This is the bare mechanism: it does NOT bump `stats().flushes` —
  /// callers that represent a flush *event* (policies, resync, the
  /// control channel) count it themselves.
  void flush();

  /// An operator-requested flush (the control channel's kFlushCache,
  /// DESIGN.md §12.3): flush() plus the `flushes` count every other
  /// flush-event caller keeps, so explicit flushes show up in the
  /// stats snapshot the operator reads next.
  void flush_counted();

  /// Replaces the encoding policy at runtime (the control channel's
  /// policy switch, DESIGN.md §12.3).  The new policy starts from its
  /// freshly-constructed state, and the cache is flushed first so the
  /// decoder never sees references admitted under rules the operator
  /// just revoked.  The flow records and the loss table are the
  /// encoder's and carry over.  `policy` must be non-null (kNone cannot
  /// be switched to).
  void set_policy(std::unique_ptr<EncodingPolicy> policy);

  /// Deep invariant audit (BC_AUDIT; no-op unless the build enables
  /// audits): audits the cache and checks counter consistency (packet
  /// class counts nest, byte totals never grow through encoding).
  void audit() const;

  /// Decoder NACK (params.nack_feedback): the packet owning `fp` is
  /// missing at the decoder; stop referencing it.
  void on_nack(rabin::Fingerprint fp);

  /// Reverse-path cumulative ACK for `flow_key` (params.ack_gated):
  /// raises that flow's highest-ACKed sequence number used for reference
  /// admission.  The caller derives the key from the *forward* direction
  /// of the connection (core/flow.h).
  void on_reverse_ack(std::uint64_t flow_key, std::uint32_t ack);

  /// The link dropped a packet of `host_key`: a failure sample for the
  /// loss table (no-op without one).  A generation still open is sized
  /// as lossy — the dropped packet may be one of its members.
  void on_channel_drop(std::uint64_t host_key);

  /// The decoder reported `count` undecodable packets of `host_key`
  /// (ControlMessage kLossReport): failure samples, as on_channel_drop.
  void on_loss_report(std::uint64_t host_key, std::uint32_t count);

  /// Closes the open coded-repair generation (params.coded_repair) so
  /// its tail members get repair protection without waiting for G more
  /// packets — teardown, idle timers.  The returned payloads obey the
  /// same lifetime as EncodeInfo::repairs (valid until next process()).
  [[nodiscard]] std::span<const util::Bytes> close_repair_generation();

  /// Decoder resync request (params.epoch_resync): the decoder is stuck
  /// at `decoder_epoch`.  Honored — the cache is flushed, bumping the
  /// epoch — only when that *is* our current epoch: if the decoder is
  /// behind, a bump is already in flight towards it and flushing again
  /// for every straggling request would discard the cache over and over.
  void on_resync_request(std::uint16_t decoder_epoch);

 private:
  /// Window starts scanned per chunk while anchor reuse can still skip
  /// the rest (see identify_regions).
  static constexpr std::size_t kReuseChunk = 128;

  /// Fig. 2 procedure B: fills anchor_ws_.anchors with the payload's full
  /// anchor set and, when `allow_encode`, enc_.regions with the
  /// substitutable regions (their source uids into info.deps).
  void identify_regions(util::BytesView payload, const PacketContext& ctx,
                        bool allow_encode, EncodeInfo& info);

  /// Loss signals read the repair encoder's closed-generation count as
  /// their clock; called after every call that may close a generation.
  void sync_loss_clock();

  DreParams params_;
  rabin::RabinTables tables_;
  std::unique_ptr<EncodingPolicy> policy_;
  cache::CacheTier cache_;
  EncoderStats stats_;
  std::uint64_t stream_index_ = 0;
  std::uint16_t epoch_ = 0;
  bool epoch_bumped_ = false;  // next encoded packet carries the flag
  fec::RepairEncoder repair_enc_;  // idle unless params.coded_repair
  // The one record per host pair (resilience/perceived_loss.h): the
  // recent-loss window and loss clock the repair count reads.  Null
  // unless coded repair is on, so other codecs do no estimator work per
  // packet.
  std::unique_ptr<resilience::PerceivedLossEstimator> loss_;
  // The one record per TCP flow (core/flow.h): the previous outgoing
  // seq that classifies retransmissions for every policy, and the highest
  // reverse ACK for ack-gated admission.  A flat map: process() and
  // on_reverse_ack touch it once per packet, and a node-based map would
  // pay one heap node per new flow on that path (bc-hotpath-alloc).
  util::FlatMap64<FlowState> flows_;

  // Per-packet scratch, reused across process() calls so the steady-state
  // hot path stays allocation-free: anchor buffers, the dependency-id
  // dedup list, the encoded form under construction (its region and
  // literal vectors keep their capacity), and the serialized wire bytes
  // that are swapped into the packet.
  AnchorWorkspace anchor_ws_;
  AnchorWorkspace audit_ws_;  // full-scan oracle for reused anchor lists
  std::vector<cache::ProbeResult> probe_ws_;  // batched-probe results
  std::vector<std::uint64_t> dep_ids_;
  EncodedPayload enc_;
  util::Bytes wire_;
  util::Bytes fec_wire_;  // member wire-image scratch for add_member
};

}  // namespace bytecache::core
