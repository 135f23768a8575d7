// Node mobility across a handover (paper Section II).
//
// The paper's argument for IP-level byte caching: a TCP-level transparent
// proxy splits the connection into three TCP legs with independent
// sequence numbers, so when the client moves to a path that bypasses the
// proxy, the server sees acknowledgments from a *different* connection
// and the transfer wedges.  IP-level byte caching preserves TCP's
// end-to-end semantics: after a handover (brief outage + a fresh gateway
// pair with cold caches), the same connection simply keeps going.
//
// This example simulates the IP-level case: mid-download the client
// "moves" — the link blacks out for 400 ms, in-flight packets are lost,
// and both byte-caching caches are replaced by cold ones (a new gateway
// pair on the new path).  The download completes anyway.
//
//   $ ./mobility_handover
#include <cstdio>

#include "app/file_transfer.h"
#include "app/pipeline.h"
#include "sim/simulator.h"
#include "workload/generators.h"

using namespace bytecache;

int main() {
  util::Rng rng(99);
  const util::Bytes file = workload::make_file1(rng, 600'000);

  sim::Simulator sim;
  app::PipelineConfig cfg;
  cfg.policy = core::PolicyKind::kCacheFlush;
  cfg.loss_rate = 0.005;  // light background loss on the radio link
  cfg.seed = 3;
  app::Pipeline pipeline(sim, cfg);

  std::printf("downloading %zu KB with IP-level byte caching "
              "(cache_flush policy)...\n",
              file.size() / 1024);

  // Schedule the handover: cellular -> WiFi at t = 150 ms (mid-download).
  const sim::SimTime handover_at = sim::ms(150);
  const sim::SimTime outage = sim::ms(250);
  sim.at(handover_at, [&] {
    std::printf("[%6.2f s] HANDOVER: client leaves the cellular path — "
                "radio outage, in-flight packets lost\n",
                sim::to_seconds(sim.now()));
    // Total loss during the outage.
    pipeline.forward_link().set_loss(std::make_unique<sim::BernoulliLoss>(1.0));
  });
  sim.at(handover_at + outage, [&] {
    std::printf("[%6.2f s] attached via WiFi: new byte-caching gateway "
                "pair with cold caches takes over\n",
                sim::to_seconds(sim.now()));
    pipeline.forward_link().set_loss(
        std::make_unique<sim::BernoulliLoss>(0.005));
    // New gateways have empty caches on both sides.
    if (auto* enc = pipeline.encoder_gw().encoder()) enc->flush();
    // (The decoder keeps decoding; stale references from the old pair are
    // never emitted because the new encoder cache starts empty, and the
    // CRC check guards against any leftover in-flight packet.)
  });

  app::FileTransfer transfer(sim, pipeline, file, sim::sec(120));
  transfer.run_to_completion();
  const app::TransferResult& r = transfer.result();

  if (r.completed && r.verified) {
    std::printf("[%6.2f s] download complete and verified bit-exact — the "
                "TCP connection survived the handover.\n",
                r.duration_s);
  } else {
    std::printf("transfer FAILED (%.1f%% retrieved) — this should not "
                "happen with IP-level byte caching\n",
                r.percent_retrieved());
    return 1;
  }

  std::printf(
      "\nWhy the TCP-level transparent proxy cannot do this "
      "(paper Fig. 1):\n"
      "  the proxy terminates the client's TCP and opens its own leg to\n"
      "  the server, with an independent initial sequence number (e.g.\n"
      "  client leg at seq 100, server leg at seq 1000).  After the\n"
      "  handover the client's ACK 101 travels directly to the server,\n"
      "  whose connection state expects sequence ~1001: the ACK is\n"
      "  outside the window, the server keeps retransmitting into the\n"
      "  void, and the connection stalls.  IP-level byte caching never\n"
      "  touches TCP state, so mobility (with Mobile IP concealing the\n"
      "  address change) keeps working.\n");
  return 0;
}
