// The transport seam between a gateway pair (DESIGN.md §12).
//
// A Transport is one end of the bidirectional datagram channel that
// carries the tunnel's framed traffic: every datagram is exactly one
// serialized IP packet (packet::to_wire) — a passthrough packet, a
// DRE-encoded packet (IpProto::kDre, the v1/v2 wire format of
// core/wire.h), or a reverse-path control packet (core::kControlProto).
// The framing is therefore the codec's own wire format; the transport
// adds nothing, so the bytes the sim backend charges and the bytes the
// UDP backend puts on a real wire are the same bytes.
//
// Two backends implement the seam:
//   - UdpTunnelTransport (udp_transport.h): a real UDP socket on an
//     epoll EventLoop — genuine loss, reordering, and NIC-shaped
//     arrival.
//   - SimTransportPair (tests/sim_transport.h, test-only): the
//     discrete-event simulator's sim::Link behind the same interface, so
//     the pair of tunnels runs unchanged against modeled loss — the
//     proof that the sim is "the second backend", not a separate code
//     path.
//
// Delivery is push: the backend invokes the handler from its own
// drive (the event loop thread or the simulator run).  Transports are
// single-threaded like everything around them.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "obs/fields.h"
#include "util/bytes.h"

namespace bytecache::net {

struct TransportStats {
  std::uint64_t datagrams_out = 0;
  std::uint64_t datagrams_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t send_failures = 0;  // kernel refusals (full buffers)
};

/// Telemetry field table (obs/fields.h): merge_into / reset / registry
/// names, same idiom as every other stats struct.
[[nodiscard]] constexpr auto stats_fields(const TransportStats*) {
  using S = TransportStats;
  return obs::field_table<S>(
      obs::Field<S>{"datagrams_out", &S::datagrams_out},
      obs::Field<S>{"datagrams_in", &S::datagrams_in},
      obs::Field<S>{"bytes_out", &S::bytes_out},
      obs::Field<S>{"bytes_in", &S::bytes_in},
      obs::Field<S>{"send_failures", &S::send_failures});
}

using obs::merge_into;
using obs::reset;

class Transport {
 public:
  using Handler = std::function<void(util::BytesView datagram)>;

  virtual ~Transport() = default;

  /// Queues one datagram towards the peer.  False means the datagram
  /// was dropped at the sender (e.g. a full socket buffer) — datagram
  /// semantics, so callers count it, never retry it.
  virtual bool send(util::BytesView datagram) = 0;

  /// Sets the receiver for datagrams arriving from the peer.
  void set_handler(Handler handler) { handler_ = std::move(handler); }

  [[nodiscard]] const TransportStats& stats() const { return stats_; }

 protected:
  /// Backends call this for every arriving datagram.
  void deliver(util::BytesView datagram) {
    ++stats_.datagrams_in;
    stats_.bytes_in += datagram.size();
    if (handler_) handler_(datagram);
  }

  TransportStats stats_;

 private:
  Handler handler_;
};

}  // namespace bytecache::net
