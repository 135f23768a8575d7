// A client downloads a file from an HTTP-like server across a 1 MB/s
// wireless link (the paper's Fig. 3 setup), with byte-caching gateways at
// both ends.
//
//   $ ./wireless_download [policy] [loss%] [size_kb] [capture.pcap]
//   policy: none | naive | cache_flush | tcp_seq | k_distance
//
// With a fourth argument, the forward-direction wire traffic (including
// the DRE-encoded packets) is saved as a pcap file for Wireshark.
//
// Try `./wireless_download naive 1` to watch the paper's Section IV
// stall happen, and `./wireless_download cache_flush 1` to see the fix.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "app/file_transfer.h"
#include "app/pipeline.h"
#include "sim/pcap.h"
#include "sim/simulator.h"
#include "workload/generators.h"

using namespace bytecache;

int main(int argc, char** argv) {
  const std::string policy_name = argc > 1 ? argv[1] : "cache_flush";
  const double loss = (argc > 2 ? std::atof(argv[2]) : 1.0) / 100.0;
  const std::size_t size_kb = argc > 3 ? std::atoi(argv[3]) : 574;
  const char* pcap_path = argc > 4 ? argv[4] : nullptr;

  const auto policy = core::policy_from_string(policy_name);
  if (!policy) {
    std::fprintf(stderr,
                 "unknown policy '%s' (try none, naive, cache_flush, "
                 "tcp_seq, k_distance)\n",
                 policy_name.c_str());
    return 2;
  }

  util::Rng rng(2026);
  const util::Bytes file = workload::make_file1(rng, size_kb * 1024);

  sim::Simulator sim;
  app::PipelineConfig cfg;
  cfg.policy = *policy;
  cfg.loss_rate = loss;
  cfg.seed = 7;
  app::Pipeline pipeline(sim, cfg);

  sim::PcapWriter pcap;
  if (pcap_path != nullptr) pipeline.attach_pcap(&pcap);

  std::printf("downloading %zu KB over a 1 MB/s link, %.1f%% loss, "
              "policy=%s ...\n",
              size_kb, loss * 100, policy_name.c_str());

  app::FileTransfer transfer(sim, pipeline, file, sim::sec(300));
  transfer.run_to_completion();
  const app::TransferResult& r = transfer.result();

  if (r.completed) {
    std::printf("completed in %.2f s (%s)\n", r.duration_s,
                r.verified ? "verified bit-exact" : "VERIFICATION FAILED");
  } else {
    std::printf("TCP CONNECTION STALLED after %.2f s with %.1f%% of the "
                "file retrieved (%llu / %llu bytes)\n",
                r.duration_s, r.percent_retrieved(),
                static_cast<unsigned long long>(r.delivered_bytes),
                static_cast<unsigned long long>(r.file_size));
  }

  const auto& link = pipeline.forward_link().stats();
  std::printf("\nforward link: %llu packets, %llu bytes on the wire, "
              "%llu channel drops\n",
              static_cast<unsigned long long>(link.packets_offered),
              static_cast<unsigned long long>(link.bytes_sent),
              static_cast<unsigned long long>(link.drops_loss));
  std::printf("decoder: %llu undecodable packets dropped\n",
              static_cast<unsigned long long>(
                  pipeline.decoder_gw().stats().dropped));
  if (const core::Encoder* enc = pipeline.encoder_gw().encoder()) {
    const auto& es = enc->stats();
    std::printf("encoder: %llu/%llu packets encoded, %llu B -> %llu B "
                "payload (%.0f%% saved), %llu flushes, %llu references\n",
                static_cast<unsigned long long>(es.encoded_packets),
                static_cast<unsigned long long>(es.data_packets),
                static_cast<unsigned long long>(es.bytes_in),
                static_cast<unsigned long long>(es.bytes_out),
                es.bytes_in > 0
                    ? 100.0 * es.bytes_saved() / static_cast<double>(es.bytes_in)
                    : 0.0,
                static_cast<unsigned long long>(es.flushes),
                static_cast<unsigned long long>(es.references));
  }
  const auto& ss = pipeline.sender().stats();
  std::printf("tcp: %llu segments, %llu retransmissions, %llu timeouts, "
              "%llu fast retransmits\n",
              static_cast<unsigned long long>(ss.segments_sent),
              static_cast<unsigned long long>(ss.retransmissions),
              static_cast<unsigned long long>(ss.timeouts),
              static_cast<unsigned long long>(ss.fast_retransmits));
  if (pcap_path != nullptr) {
    if (pcap.save(pcap_path)) {
      std::printf("wrote %zu packets to %s\n", pcap.packet_count(),
                  pcap_path);
    } else {
      std::fprintf(stderr, "failed to write %s\n", pcap_path);
    }
  }
  return r.completed ? 0 : 1;
}
