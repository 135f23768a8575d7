// The simulator backend of the transport seam (DESIGN.md §12), for
// tests: the middlebox library (bc_net) does not link the simulator.
//
// A SimTransportPair is the two ends of a tunnel whose "wire" is the
// discrete-event simulator's sim::Link — the same rate-limited, lossy,
// reordering link every experiment in this repo runs over.  Datagrams
// sent on one end are parsed back into packets (they are serialized IP
// packets by the transport contract), offered to the link, and
// re-serialized to the other end's handler on delivery.
//
// The pair does not drive the simulator: after feeding input, the owner
// runs `sim.run()` (or run_until) to flush deliveries — exactly how
// every other sim component is driven.  tests/net_test.cc runs the same
// stream through the tunnels over this pair and over UDP loopback and
// requires byte-identical wire traffic: same tunnels, same framing,
// different wire.
#pragma once

#include <memory>

#include "net/transport.h"
#include "sim/link.h"
#include "sim/simulator.h"

namespace bytecache::net {

struct SimTransportConfig {
  /// Both directions of the tunnel's modeled wire.  Defaults are a fast
  /// clean link so the sim backend measures the codec, not a bottleneck;
  /// experiments dial in rate/loss exactly as PipelineConfig does.
  sim::LinkConfig forward{.rate_bytes_per_sec = 1e9,
                          .propagation_delay = sim::us(50),
                          .queue_packets = 4096};
  sim::LinkConfig reverse{.rate_bytes_per_sec = 1e9,
                          .propagation_delay = sim::us(50),
                          .queue_packets = 4096};
  double forward_loss = 0.0;  // Bernoulli loss per direction
  double reverse_loss = 0.0;
  std::uint64_t seed = 1;
};

class SimTransportPair {
 public:
  SimTransportPair(sim::Simulator& sim, const SimTransportConfig& config);
  ~SimTransportPair();

  /// The encoder-side end (sends over the forward link).
  [[nodiscard]] Transport& end_a();
  /// The decoder-side end (sends over the reverse link).
  [[nodiscard]] Transport& end_b();

  [[nodiscard]] const sim::Link& forward_link() const { return *forward_; }
  [[nodiscard]] const sim::Link& reverse_link() const { return *reverse_; }

  /// Datagrams that failed to parse as IP packets (malformed input is a
  /// send failure on the offering end, mirroring a refused sendto).
  [[nodiscard]] std::uint64_t malformed_sends() const { return malformed_; }

 private:
  class End;

  std::unique_ptr<sim::Link> forward_;
  std::unique_ptr<sim::Link> reverse_;
  std::unique_ptr<End> a_;
  std::unique_ptr<End> b_;
  std::uint64_t malformed_ = 0;
};

}  // namespace bytecache::net
