// The rate-limited, lossy link (the "wireless" segment of paper Fig. 3).
//
// Models a point-to-point link with
//   - a FIFO tail-drop queue in front of a serializer limited to
//     `rate_bytes_per_sec` (the paper's 1 MB/s traffic shaper),
//   - fixed propagation delay,
//   - a pluggable loss process applied per packet,
//   - optional random corruption (real byte flips, caught downstream by
//     the DRE CRC or the TCP checksum), and
//   - optional reordering (an extra delay on selected packets, letting
//     later packets overtake them).
//
// Bytes are charged to the wire when serialized, regardless of whether the
// packet is subsequently lost — matching how the paper counts "bytes sent".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "obs/fields.h"
#include "packet/packet.h"
#include "sim/loss_model.h"
#include "sim/pcap.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "sim/time.h"
#include "util/rng.h"

namespace bytecache::sim {

struct LinkConfig {
  double rate_bytes_per_sec = 1'000'000.0;  // paper: 1 MB/s
  SimTime propagation_delay = us(500);
  std::size_t queue_packets = 64;   // tail-drop bound (serializing + queued)
  double corrupt_prob = 0.0;
  double reorder_prob = 0.0;
  SimTime reorder_extra_delay = ms(3);
};

struct LinkStats {
  std::uint64_t packets_offered = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t drops_loss = 0;
  std::uint64_t drops_queue = 0;
  std::uint64_t corrupted = 0;
  std::uint64_t reordered = 0;
  std::uint64_t bytes_offered = 0;
  std::uint64_t bytes_sent = 0;  // serialized onto the wire
};

/// Telemetry field table (obs/fields.h): drives the generic merge_into /
/// reset / snapshot operations and the registry metric names.
[[nodiscard]] constexpr auto stats_fields(const LinkStats*) {
  using S = LinkStats;
  return obs::field_table<S>(
      obs::Field<S>{"packets_offered", &S::packets_offered},
      obs::Field<S>{"packets_delivered", &S::packets_delivered},
      obs::Field<S>{"drops_loss", &S::drops_loss},
      obs::Field<S>{"drops_queue", &S::drops_queue},
      obs::Field<S>{"corrupted", &S::corrupted},
      obs::Field<S>{"reordered", &S::reordered},
      obs::Field<S>{"bytes_offered", &S::bytes_offered},
      obs::Field<S>{"bytes_sent", &S::bytes_sent});
}

using obs::merge_into;
using obs::reset;

class Link {
 public:
  using Sink = std::function<void(packet::PacketPtr)>;

  Link(Simulator& sim, const LinkConfig& config,
       std::unique_ptr<LossProcess> loss, util::Rng rng);

  /// Sets the receiver of delivered packets.
  void set_sink(Sink sink) { sink_ = std::move(sink); }

  /// Offers a packet to the link.
  void send(packet::PacketPtr pkt);

  /// Replaces the loss process at runtime (e.g. an outage during a
  /// handover, or a channel whose quality changes mid-experiment).
  void set_loss(std::unique_ptr<LossProcess> loss) { loss_ = std::move(loss); }

  /// Optional event trace (not owned; may be null).
  void set_trace(Trace* trace) { trace_ = trace; }

  /// Optional pcap capture of everything serialized onto the wire
  /// (not owned; may be null).
  void set_pcap(PcapWriter* pcap) { pcap_ = pcap; }

  /// Optional observer called with every packet the link drops (queue
  /// overflow at send time, channel loss at end of serialization).  The
  /// pipeline points this at the encoder gateway so channel drops feed
  /// the perceived-loss estimator.
  void set_drop_observer(std::function<void(const packet::Packet&)> fn) {
    drop_observer_ = std::move(fn);
  }

  [[nodiscard]] const LinkStats& stats() const { return stats_; }
  [[nodiscard]] const LinkConfig& config() const { return config_; }

 private:
  void deliver(packet::PacketPtr pkt);

  Simulator& sim_;
  LinkConfig config_;
  std::unique_ptr<LossProcess> loss_;
  util::Rng rng_;
  Sink sink_;
  std::function<void(const packet::Packet&)> drop_observer_;
  LinkStats stats_;
  Trace* trace_ = nullptr;
  PcapWriter* pcap_ = nullptr;
  SimTime busy_until_ = 0;
  std::size_t in_system_ = 0;  // serializing + queued packets
};

}  // namespace bytecache::sim
