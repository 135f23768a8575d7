// The middlebox cores: EncoderGateway / DecoderGateway adapted to the
// transport seam (DESIGN.md §12.2).
//
// An EncoderTunnel turns plain application datagrams into tunnel
// datagrams: each plain datagram becomes one synthesized IP/UDP packet
// on a per-source virtual flow, runs through the DRE encoder, and goes
// to the peer as one serialized packet.  Reverse tunnel datagrams are
// the decoder's control feedback (core/control.h) and are fed back into
// the encoder gateway.
//
// A DecoderTunnel is the mirror: tunnel datagrams are parsed, decoded
// (undecodable packets are dropped, control feedback is emitted through
// the same transport), and the reconstructed application bytes are
// handed to the plain-side sink.
//
// Both tunnels are backend-agnostic: the same objects run over a
// UdpTunnelTransport (two real processes) or over the tests'
// SimTransportPair (one process, modeled wire).  Virtual flow addressing is
// deterministic — source N of a run maps to the same virtual IP pair in
// every backend — which is what makes wire_ratio comparable across
// backends down to the byte.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "core/factory.h"
#include "gateway/gateways.h"
#include "net/transport.h"
#include "obs/metrics.h"
#include "packet/ipv4.h"

namespace bytecache::net {

struct TunnelConfig {
  /// Codec construction (policy, DreParams, telemetry knobs).  The
  /// `metrics` field is used as every gateway does: an optional parent
  /// registry; each tunnel keeps its own registry regardless.
  core::GatewayConfig gateway;

  /// Virtual addressing of synthesized flows.  The first plain source
  /// becomes virt_client_ip, the next virt_client_ip + 1, ...; all flows
  /// share virt_server_ip, so host-pair flow keys stay per-source.
  std::uint32_t virt_client_ip = packet::make_ip(10, 0, 0, 1);
  std::uint32_t virt_server_ip = packet::make_ip(10, 0, 1, 1);
  std::uint16_t virt_src_port = 5004;
  std::uint16_t virt_dst_port = 5006;
};

struct TunnelStats {
  std::uint64_t plain_in = 0;           // application datagrams accepted
  std::uint64_t plain_bytes_in = 0;     // their payload bytes
  std::uint64_t plain_out = 0;          // datagrams delivered plain-side
  std::uint64_t plain_bytes_out = 0;
  std::uint64_t tunnel_malformed = 0;   // tunnel datagrams that failed to
                                        // parse as IP packets
  std::uint64_t flows = 0;              // distinct plain sources seen
  std::uint64_t oversize_dropped = 0;   // plain datagrams too big to frame
};

[[nodiscard]] constexpr auto stats_fields(const TunnelStats*) {
  using S = TunnelStats;
  return obs::field_table<S>(
      obs::Field<S>{"plain_in", &S::plain_in},
      obs::Field<S>{"plain_bytes_in", &S::plain_bytes_in},
      obs::Field<S>{"plain_out", &S::plain_out},
      obs::Field<S>{"plain_bytes_out", &S::plain_bytes_out},
      obs::Field<S>{"tunnel_malformed", &S::tunnel_malformed},
      obs::Field<S>{"flows", &S::flows},
      obs::Field<S>{"oversize_dropped", &S::oversize_dropped});
}

using obs::merge_into;
using obs::reset;

class EncoderTunnel {
 public:
  /// `tunnel` (not owned; must outlive this) carries framed traffic to
  /// the decoder peer; its receive handler is claimed by this tunnel.
  EncoderTunnel(const TunnelConfig& config, Transport& tunnel);

  /// One application datagram from plain source `source_key` (any
  /// stable per-source id; the UDP front end uses SocketAddr::key()).
  void on_plain_datagram(util::BytesView data, std::uint64_t source_key);

  /// Runtime control (net/control.h plugs these in).
  [[nodiscard]] bool flush_cache();
  [[nodiscard]] bool switch_policy(std::string_view name);

  /// Everything this middlebox knows: gateway + codec + cache metrics
  /// (via the gateway provider), net.tunnel.* transport counters, and
  /// net.plain.* tunnel counters.
  [[nodiscard]] obs::Snapshot snapshot() const { return metrics_.snapshot(); }

  [[nodiscard]] const TunnelStats& stats() const { return stats_; }
  [[nodiscard]] gateway::EncoderGateway& gw() { return gw_; }

 private:
  void on_tunnel_datagram(util::BytesView wire);

  TunnelConfig config_;
  Transport& tunnel_;
  TunnelStats stats_;
  // Declared before the gateway: the gateway registers itself as a
  // snapshot provider on this registry during construction.
  obs::MetricsRegistry metrics_;
  gateway::EncoderGateway gw_;
  std::unordered_map<std::uint64_t, std::uint32_t> flow_ips_;
  util::Bytes payload_scratch_;  // UDP header + data, reused per datagram
  util::Bytes wire_scratch_;     // serialized packet, reused per datagram
};

class DecoderTunnel {
 public:
  /// Called with each reconstructed application datagram.
  using PlainSink = std::function<void(util::BytesView data)>;

  DecoderTunnel(const TunnelConfig& config, Transport& tunnel,
                PlainSink plain_sink);

  [[nodiscard]] bool flush_cache();

  [[nodiscard]] obs::Snapshot snapshot() const { return metrics_.snapshot(); }
  [[nodiscard]] const TunnelStats& stats() const { return stats_; }
  [[nodiscard]] gateway::DecoderGateway& gw() { return gw_; }

 private:
  void on_tunnel_datagram(util::BytesView wire);

  Transport& tunnel_;
  PlainSink plain_sink_;
  TunnelStats stats_;
  // Declared before the gateway (provider registration at construction).
  obs::MetricsRegistry metrics_;
  gateway::DecoderGateway gw_;
  util::Bytes wire_scratch_;  // serialized feedback packet, reused
};

}  // namespace bytecache::net
