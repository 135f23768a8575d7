// Byte-caching gateways: the encoder/decoder as pipeline stages.
//
// The paper deploys the encoder at (or near) the server and the decoder at
// the client side of the resource-constrained segment (Fig. 3).  These
// wrappers adapt core::Encoder / core::Decoder to the packet-flow
// interface: receive a packet, transform it, hand it to the next stage —
// dropping undecodable packets at the decoder.
//
// Each gateway owns a shard-local obs::MetricsRegistry assembled at
// construction (DESIGN.md §10): every field of its own stats struct, of
// the codec's stats, and of the cache's stats is a linked counter; cache
// occupancy and resilience state are probes; per-packet encode/decode
// latency is a sampled span histogram.  snapshot() is therefore the
// single read surface for everything the gateway knows, and a parent
// registry passed via core::GatewayConfig::metrics sees this gateway as
// one provider.
#pragma once

#include <functional>
#include <memory>
#include <span>

#include "core/control.h"
#include "core/decoder.h"
#include "core/encoder.h"
#include "core/factory.h"
#include "fec/decoder.h"
#include "obs/fields.h"
#include "obs/span.h"
#include "packet/packet.h"

namespace bytecache::gateway {

using PacketSink = std::function<void(packet::PacketPtr)>;
using EncodeObserver = std::function<void(const core::EncodeInfo&)>;
using DecodeObserver =
    std::function<void(const packet::Packet&, const core::DecodeInfo&)>;

/// Dependency bookkeeping shared by the experiment harness.
struct EncoderGatewayStats {
  std::uint64_t packets = 0;
  std::uint64_t wire_bytes_out = 0;  // IP header + payload after encoding
  std::uint64_t channel_drops_seen = 0;  // link drop reports received
  std::uint64_t loss_reports = 0;        // kLossReport messages received
  std::uint64_t repair_packets_out = 0;  // coded-repair packets injected
};

/// Telemetry field table (obs/fields.h): drives the generic merge_into /
/// reset / snapshot operations and the registry metric names.
[[nodiscard]] constexpr auto stats_fields(const EncoderGatewayStats*) {
  using S = EncoderGatewayStats;
  return obs::field_table<S>(
      obs::Field<S>{"packets", &S::packets},
      obs::Field<S>{"wire_bytes_out", &S::wire_bytes_out},
      obs::Field<S>{"channel_drops_seen", &S::channel_drops_seen},
      obs::Field<S>{"loss_reports", &S::loss_reports},
      obs::Field<S>{"repair_packets_out", &S::repair_packets_out});
}

/// Generic aggregation across the per-shard gateways of a sharded
/// gateway (gateway/sharded_gateways.h).
using obs::merge_into;
using obs::reset;

class EncoderGateway {
 public:
  /// `cfg.policy == kNone` builds a transparent gateway (no DRE, for
  /// baselines).  The shard/ring fields of `cfg` are ignored here.
  /// `shared_l2` is a gateway-spanning L2 store (sharded gateways pass
  /// one per side; not owned, must outlive this gateway); when null and
  /// cfg.cache.has_l2(), the gateway creates its own single-stripe store.
  explicit EncoderGateway(const core::GatewayConfig& cfg,
                          cache::L2Store* shared_l2 = nullptr);

  void set_sink(PacketSink sink) { sink_ = std::move(sink); }

  /// Encodes (possibly in place) and forwards.
  void receive(packet::PacketPtr pkt);

  /// Burst form: consumes and processes every (non-null) packet of
  /// `pkts` in order, exactly as a receive() loop would — same codec
  /// sequence, same sink calls, same stats — while prefetching the next
  /// packet's payload head so back-to-back encodes overlap their
  /// first-touch misses.  The sharded encoder's workers drain their input
  /// rings into this (gateway/sharded_gateways.cc).
  void receive_burst(std::span<packet::PacketPtr> pkts);

  /// Adds an observer called with the EncodeInfo of every processed
  /// packet, after the observers added before it.
  void add_observer(EncodeObserver fn);

  /// Feeds a reverse-direction DRE control packet (NACK, resync request,
  /// or loss report — dispatched by core::ControlMessage::Type).
  void receive_control(const packet::Packet& pkt);

  /// Observes a reverse-direction data/ACK packet (ACK-gated mode reads
  /// the cumulative acknowledgment from it).
  void observe_reverse(const packet::Packet& pkt);

  /// Closes the open coded-repair generation (params.coded_repair) and
  /// injects its repair packets, so tail members get protection without
  /// waiting for G more packets — call at transfer end / idle.  No-op
  /// before the first forwarded packet (repairs inherit its addressing).
  void flush_repairs();

  /// The simulated link dropped `pkt` (loss or queue overflow).  A real
  /// deployment learns this from transport-level signals; the simulation
  /// reports it directly.  Feeds the encoder's loss table (kept under
  /// coded repair) as a *channel* loss sample.
  void on_channel_drop(const packet::Packet& pkt);

  /// Runtime policy switch (the control channel's kSwitchPolicy,
  /// DESIGN.md §12.3): rebuilds the policy via core::make_policy with
  /// the params this gateway was constructed with, flushing the cache
  /// first (Encoder::set_policy).  False — and no change — for kNone,
  /// for a disabled gateway, and for policies the running DreParams
  /// cannot support.
  bool switch_policy(core::PolicyKind kind);

  [[nodiscard]] bool enabled() const { return encoder_ != nullptr; }
  [[nodiscard]] const core::Encoder* encoder() const { return encoder_.get(); }
  [[nodiscard]] core::Encoder* encoder() { return encoder_.get(); }
  [[nodiscard]] const EncoderGatewayStats& stats() const { return stats_; }

  /// Everything this gateway knows, as one value set: gateway.encoder.*,
  /// encoder.*, encoder.cache.*, (coded repair) encoder.fec.* and
  /// fec.encoder.*, and (loss table) resilience.*.
  [[nodiscard]] obs::Snapshot snapshot() const { return metrics_.snapshot(); }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }

 private:
  void process_received(packet::PacketPtr pkt);
  void emit_repairs(std::span<const util::Bytes> repairs);

  // Declared before the encoder: the codec's stripe must outlive it.
  std::unique_ptr<cache::L2Store> own_l2_;  // null when external/absent
  std::unique_ptr<core::Encoder> encoder_;  // null when disabled
  PacketSink sink_;
  EncodeObserver observer_;
  EncoderGatewayStats stats_;
  obs::MetricsRegistry metrics_;
  obs::SpanSampler encode_span_;  // -> "gateway.encoder.encode_ns"
  // Addressing for injected repair packets: the host pair of the last
  // forwarded data packet (repairs follow the stream they protect).
  std::uint32_t repair_src_ = 0;
  std::uint32_t repair_dst_ = 0;
  bool repair_addr_known_ = false;
};

struct DecoderGatewayStats {
  std::uint64_t packets = 0;
  std::uint64_t dropped = 0;  // undecodable (perceived loss at the client)
  std::uint64_t nacks_sent = 0;
  std::uint64_t loss_reports_sent = 0;  // kLossReport control messages
  std::uint64_t resyncs_sent = 0;       // kResyncRequest control messages
};

/// Telemetry field table (see EncoderGatewayStats above).
[[nodiscard]] constexpr auto stats_fields(const DecoderGatewayStats*) {
  using S = DecoderGatewayStats;
  return obs::field_table<S>(
      obs::Field<S>{"packets", &S::packets},
      obs::Field<S>{"dropped", &S::dropped},
      obs::Field<S>{"nacks_sent", &S::nacks_sent},
      obs::Field<S>{"loss_reports_sent", &S::loss_reports_sent},
      obs::Field<S>{"resyncs_sent", &S::resyncs_sent});
}

class DecoderGateway {
 public:
  /// `cfg.decoder_enabled() == false` builds a transparent gateway.
  /// `shared_l2` mirrors EncoderGateway's: a store shared across this
  /// side's shards, or null to self-provision when cfg.cache.has_l2().
  explicit DecoderGateway(const core::GatewayConfig& cfg,
                          cache::L2Store* shared_l2 = nullptr);

  void set_sink(PacketSink sink) { sink_ = std::move(sink); }

  /// Adds an observer called with every packet the codec processes and
  /// its DecodeInfo — before the packet is delivered, or dropped and its
  /// feedback sent — after the observers added before it.
  void add_observer(DecodeObserver fn);

  /// Reverse-path sink for control packets.  What is sent over it is
  /// governed by the params the gateway was built with: NACKs when
  /// nack_feedback, loss reports and resync requests when epoch_resync.
  void set_feedback(PacketSink feedback) { feedback_ = std::move(feedback); }

  /// Decodes and forwards; drops undecodable packets (sending the
  /// configured control feedback on the reverse path).
  void receive(packet::PacketPtr pkt);

  /// Releases everything the coded-repair reorder cache still holds
  /// (params.coded_repair), oldest generation first — teardown / idle,
  /// so tail packets are not stranded waiting for a generation to fill.
  void drain_repair_buffer();

  /// Data packets currently held by the coded-repair reorder cache.
  [[nodiscard]] std::size_t repair_buffered() const {
    return repair_ == nullptr ? 0 : repair_->buffered();
  }

  [[nodiscard]] bool enabled() const { return decoder_ != nullptr; }
  [[nodiscard]] const core::Decoder* decoder() const { return decoder_.get(); }
  [[nodiscard]] core::Decoder* decoder() { return decoder_.get(); }
  [[nodiscard]] const DecoderGatewayStats& stats() const { return stats_; }

  /// Everything this gateway knows: gateway.decoder.*, decoder.*,
  /// decoder.cache.*.  An open undecodable run is flushed into the run
  /// histogram first (a snapshot is an episode boundary).
  [[nodiscard]] obs::Snapshot snapshot() const;
  [[nodiscard]] const obs::MetricsRegistry& metrics() const {
    return metrics_;
  }

 private:
  void process_received(packet::PacketPtr pkt);
  void deliver(packet::PacketPtr pkt);
  void deliver_released();
  void send_control(const packet::Packet& cause,
                    const core::ControlMessage& msg);

  // Declared before the decoder: the codec's stripe must outlive it.
  std::unique_ptr<cache::L2Store> own_l2_;  // null when external/absent
  std::unique_ptr<core::Decoder> decoder_;
  PacketSink sink_;
  PacketSink feedback_;
  DecodeObserver observer_;
  DecoderGatewayStats stats_;
  obs::MetricsRegistry metrics_;
  obs::SpanSampler decode_span_;  // -> "gateway.decoder.decode_ns"
  // Length of the current run of consecutive undecodable drops; flushed
  // into "gateway.decoder.undecodable_run" when a packet gets through —
  // the per-episode severity of a cache desync (resync episodes).
  obs::Histogram* run_hist_ = nullptr;
  mutable std::uint64_t drop_run_ = 0;  // snapshot() flushes an open run
  bool nack_feedback_ = false;     // params.nack_feedback
  bool resilience_feedback_ = false;  // params.epoch_resync
  // Coded-repair front end (params.coded_repair): re-sequences v3-tagged
  // arrivals and reconstructs losses before the core decoder sees them.
  std::unique_ptr<fec::RepairDecoder> repair_;  // null when off
  std::vector<fec::RepairDecoder::Released> fec_out_;  // release scratch
};

}  // namespace bytecache::gateway
