// The paper's experimental topology (Fig. 3), fully wired:
//
//   sender[i] -> EncoderGateway -> lossy Link -> DecoderGateway -> receiver[i]
//      ^                                                               |
//      +------------------ reverse Link <------ ACKs ------------------+
//
// The forward link is the rate-limited lossy "wireless" segment; the
// reverse link carries ACKs (by default fast and lossless, configurable).
//
// One gateway pair and one link pair carry every flow.  The paper notes
// (Section IV-C) that a cache desynchronization affects "not only one TCP
// connection, but all subsequent connections going through the encoder
// and decoder", and its introduction credits byte caching with
// eliminating redundancy "both intra-flow and inter-flows"; N flows
// through one Pipeline are exactly that setting.  Flows are
// demultiplexed by TCP port at the two edges of the topology.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/factory.h"
#include "core/params.h"
#include "gateway/gateways.h"
#include "sim/link.h"
#include "sim/pcap.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "tcp/config.h"
#include "tcp/receiver.h"
#include "tcp/sender.h"
#include "util/rng.h"

namespace bytecache::app {

struct PipelineConfig {
  core::PolicyKind policy = core::PolicyKind::kNone;
  core::DreParams dre;
  cache::CacheConfig cache;
  tcp::TcpConfig tcp;
  sim::LinkConfig forward_link;
  sim::LinkConfig reverse_link{
      .rate_bytes_per_sec = 10'000'000.0,
      .propagation_delay = sim::us(500),
      .queue_packets = 1024,
  };
  double loss_rate = 0.0;       // forward-link Bernoulli loss
  bool bursty_loss = false;     // use a Gilbert–Elliott process instead
  double reverse_loss_rate = 0.0;
  std::uint64_t seed = 1;
  /// Deep-audit cadence: every N simulator events the pipeline audits the
  /// codec caches and every TCP endpoint (0 disables; no-op in builds
  /// without BYTECACHE_AUDIT).
  std::uint64_t audit_interval_events = 256;
  /// Latency-span decimation for the gateways (0 disables spans; see
  /// core::GatewayConfig::span_sample_every).
  std::uint32_t span_sample_every = 64;

  /// The gateway-construction view of this config (the pipeline fills in
  /// the registry pointer itself).
  [[nodiscard]] core::GatewayConfig gateway_config() const {
    core::GatewayConfig g;
    g.params = dre;
    g.policy = policy;
    g.cache = cache;
    g.span_sample_every = span_sample_every;
    return g;
  }
};

class Pipeline {
 public:
  /// Builds `flows` TCP connections sharing one gateway pair.  Flow i
  /// uses destination port config.tcp.dst_port + i and initial sequence
  /// number config.tcp.isn + i * 0x1000000 on the same server/client
  /// addresses.  With no flows, set_edges() attaches the endpoints.
  Pipeline(sim::Simulator& sim, const PipelineConfig& config,
           std::size_t flows = 1);
  ~Pipeline();

  /// Runs every component's deep invariant audit (see util/check.h); the
  /// simulator calls this on the configured event cadence.
  void audit() const;

  [[nodiscard]] tcp::TcpSender& sender(std::size_t i = 0) {
    return *senders_[i];
  }
  [[nodiscard]] tcp::TcpReceiver& receiver(std::size_t i = 0) {
    return *receivers_[i];
  }
  [[nodiscard]] gateway::EncoderGateway& encoder_gw() { return *encoder_gw_; }
  [[nodiscard]] gateway::DecoderGateway& decoder_gw() { return *decoder_gw_; }
  [[nodiscard]] sim::Link& forward_link() { return *forward_link_; }
  [[nodiscard]] sim::Link& reverse_link() { return *reverse_link_; }
  [[nodiscard]] const PipelineConfig& config() const { return config_; }

  /// The pipeline-wide registry: both gateways as providers plus every
  /// link and TCP endpoint counter ("link.forward.*", "link.reverse.*",
  /// "tcp.sender.*", "tcp.receiver.*"; counters add across flows).
  /// snapshot() is the single read surface the harness builds its
  /// experiment results from.
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }
  [[nodiscard]] obs::Snapshot snapshot() const { return metrics_.snapshot(); }

  /// Replaces the per-flow port demultiplexers at the topology's edges:
  /// `client` receives every packet the decoder gateway delivers,
  /// `server` every non-control packet the reverse link delivers (after
  /// the encoder gateway has observed it).  For endpoints that are not
  /// flows of this pipeline, such as app::HttpSession's exchanges.
  void set_edges(gateway::PacketSink client, gateway::PacketSink server);

  /// Records into `trace` (not owned) the events of both links, and the
  /// gateways' encode, decode and feedback events stamped with the
  /// simulator clock.  Attach at most once, before traffic flows.
  void attach_trace(sim::Trace* trace);

  /// Captures forward-direction wire traffic into `pcap`.
  void attach_pcap(sim::PcapWriter* pcap) { forward_link_->set_pcap(pcap); }

 private:
  /// Flow index for a packet by its TCP destination port (forward
  /// direction) / source port (reverse); nullopt if out of range.
  [[nodiscard]] std::optional<std::size_t> flow_of(const packet::Packet& pkt,
                                                   bool forward) const;
  /// Traces one decoder control packet on its way to the reverse link.
  void trace_feedback(const packet::Packet& ctrl);

  PipelineConfig config_;
  sim::Simulator* sim_ = nullptr;
  sim::Simulator::AuditorId auditor_id_ = 0;
  obs::MetricsRegistry metrics_;  // must outlive the components below
  std::unique_ptr<gateway::EncoderGateway> encoder_gw_;
  std::unique_ptr<gateway::DecoderGateway> decoder_gw_;
  std::unique_ptr<sim::Link> forward_link_;
  std::unique_ptr<sim::Link> reverse_link_;
  std::vector<std::unique_ptr<tcp::TcpSender>> senders_;
  std::vector<std::unique_ptr<tcp::TcpReceiver>> receivers_;
  gateway::PacketSink server_edge_;
  sim::Trace* trace_ = nullptr;
  // The packet the decoder last processed: the cause of any feedback it
  // sends before the next one.
  std::uint64_t decoded_uid_ = 0;
};

}  // namespace bytecache::app
