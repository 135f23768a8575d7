// Multi-shard data-plane throughput: MB/s through the sharded gateways
// (gateway/sharded_gateways.h) at 1, 2, 4, and 8 shards.
//
// Tracked alongside bench_throughput in BENCH_dataplane.json (emitted by
// tools/bench_json.py).  The workload is 8 host-pair flows, each
// streaming File 1 as MSS-sized TCP segments, interleaved round-robin —
// the traffic mix the paper's single middlebox multiplexes.  The driver
// thread submits; each encoder shard's worker encodes and (via the
// worker sink) decodes on its own thread against the shard-twin decoder,
// so N shards keep up to N cores busy.  Every decoded packet is verified
// byte-for-byte against the offered stream.
//
// Like bench_throughput: an untimed warm-up pass populates the caches,
// then the fastest of `passes` timed replays is reported.  The
// `file1_1flow_1shard` entry replays bench_throughput's exact
// single-flow stream through one shard; its wire_ratio must match the
// bench_throughput file1_naive_valuesampling baseline (same packets,
// same codec — sharding must not change a single wire byte).
//
// The scaling curve is machine-dependent: shards beyond the machine's
// core count just time-slice, so the JSON records hardware_concurrency
// next to the shard sweep.  Run with --quick for the CI smoke job.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.h"
#include "gateway/sharded_gateways.h"
#include "packet/ipv4.h"
#include "packet/tcp.h"
#include "rabin/scan_kernel.h"

namespace {

using namespace bytecache;

constexpr std::size_t kMss = 1460;
constexpr std::size_t kFlows = 8;

/// One flow's pre-built segment stream (payload = TCP header + data).
struct FlowStream {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::vector<util::Bytes> segments;
  std::size_t data_bytes = 0;
};

FlowStream make_flow(const util::Bytes& file, std::uint32_t src,
                     std::uint32_t dst) {
  FlowStream s;
  s.src = src;
  s.dst = dst;
  std::uint32_t seq = 1;
  for (std::size_t off = 0; off < file.size(); off += kMss) {
    const std::size_t n = std::min(kMss, file.size() - off);
    packet::TcpHeader h;
    h.src_port = 40000;
    h.dst_port = 5001;
    h.seq = seq;
    h.flags = packet::TcpHeader::kAck;
    util::Bytes payload;
    payload.reserve(packet::TcpHeader::kSize + n);
    h.serialize(payload, util::BytesView(file.data() + off, n), src, dst);
    seq += static_cast<std::uint32_t>(n);
    s.data_bytes += payload.size();
    s.segments.push_back(std::move(payload));
  }
  return s;
}

/// Round-robin interleave: (flow index, segment index) submission order.
std::vector<std::pair<std::size_t, std::size_t>> interleave(
    const std::vector<FlowStream>& flows) {
  std::vector<std::pair<std::size_t, std::size_t>> order;
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (std::size_t f = 0; f < flows.size(); ++f) {
      if (i < flows[f].segments.size()) {
        order.emplace_back(f, i);
        any = true;
      }
    }
    if (!any) break;
  }
  return order;
}

/// Per-shard decode verification state, owned by that shard's worker
/// thread (no sharing): each flow's segments must come back bit-identical
/// and in order.
struct ShardVerifier {
  const std::vector<FlowStream>* flows = nullptr;
  std::vector<std::size_t> next_segment;  // per flow
  std::size_t failures = 0;

  void check(const packet::Packet& pkt) {
    for (std::size_t f = 0; f < flows->size(); ++f) {
      const FlowStream& fs = (*flows)[f];
      if (fs.src != pkt.ip.src || fs.dst != pkt.ip.dst) continue;
      const std::size_t i = next_segment[f]++;
      if (i >= fs.segments.size()) {
        ++failures;  // more packets for this flow than were offered
        return;
      }
      const util::Bytes& expect = fs.segments[i];
      if (pkt.payload.size() != expect.size() ||
          std::memcmp(pkt.payload.data(), expect.data(), expect.size()) !=
              0) {
        ++failures;
      }
      return;
    }
    ++failures;  // packet matched no flow
  }
};

struct Result {
  std::string name;
  std::size_t shards = 0;
  double seconds = 0;
  std::size_t packets = 0;
  std::size_t bytes = 0;
  std::size_t encoded = 0;
  std::size_t decode_failures = 0;
  double wire_ratio = 0;

  [[nodiscard]] double mb_per_s() const {
    return seconds > 0 ? static_cast<double>(bytes) / 1e6 / seconds : 0;
  }
  [[nodiscard]] double packets_per_s() const {
    return seconds > 0 ? static_cast<double>(packets) / seconds : 0;
  }
};

/// Streams the interleaved flows through an N-shard encoder whose shard
/// workers decode inline against the shard-twin decoder (threads: driver
/// + N workers).  Fastest of `passes` timed replays after one warm-up.
Result run_sharded(const std::string& name, std::size_t shards,
                   const std::vector<FlowStream>& flows, std::size_t passes) {
  Result r;
  r.name = name;
  r.shards = shards;

  core::GatewayConfig enc_cfg;  // paper defaults: w=16, k=4, value sampling
  enc_cfg.policy = core::PolicyKind::kNaive;
  enc_cfg.shards = shards;
  enc_cfg.ring_capacity = 512;
  enc_cfg.threaded = true;
  core::GatewayConfig dec_cfg = enc_cfg;

  gateway::ShardedEncoderGateway enc(enc_cfg);
  gateway::ShardedDecoderGateway dec(dec_cfg);

  // Each encoder worker hands its shard's wire packets straight to the
  // decoder twin, which decodes on the thread that feeds it, so the whole
  // per-shard pipeline shares one thread.
  std::vector<ShardVerifier> verify(shards);
  for (auto& v : verify) {
    v.flows = &flows;
    v.next_segment.assign(flows.size(), 0);
  }
  dec.set_worker_sink([&verify](std::size_t i, packet::PacketPtr pkt) {
    verify[i].check(*pkt);
  });
  enc.set_worker_sink([&dec](std::size_t i, packet::PacketPtr pkt) {
    dec.submit_to_shard(i, std::move(pkt));
  });

  const auto order = interleave(flows);
  std::size_t offered = 0;
  for (const FlowStream& f : flows) offered += f.data_bytes;

  double best = 0;
  std::uint64_t wire_before = 0;
  std::uint64_t wire_pass = 0;
  for (std::size_t pass = 0; pass <= passes; ++pass) {
    const bool timed = pass > 0;  // pass 0 warms caches and buffers
    const auto t0 = std::chrono::steady_clock::now();
    for (const auto& [f, i] : order) {
      const FlowStream& fs = flows[f];
      enc.submit(packet::make_packet(fs.src, fs.dst, packet::IpProto::kTcp,
                                     fs.segments[i]));
    }
    enc.drain_until_idle();
    const auto t1 = std::chrono::steady_clock::now();
    const std::uint64_t wire_now = enc.stats().wire_bytes_out;
    // wire_size() counts the IP header too; subtract it per packet so the
    // ratio is payload-over-payload like bench_throughput's.
    wire_pass = wire_now - wire_before -
                order.size() * packet::Ipv4Header::kSize;
    wire_before = wire_now;
    if (!timed) {
      // Reset the per-shard cursors: every pass replays the same streams.
      for (auto& v : verify) v.next_segment.assign(flows.size(), 0);
      continue;
    }
    const double sec = std::chrono::duration<double>(t1 - t0).count();
    if (best == 0 || sec < best) best = sec;
    for (auto& v : verify) v.next_segment.assign(flows.size(), 0);
  }
  enc.audit();
  dec.audit();

  r.seconds = best;
  r.packets = order.size();
  r.bytes = offered;
  r.encoded = enc.encoder_stats().encoded_packets / (passes + 1);
  r.wire_ratio =
      offered > 0
          ? static_cast<double>(wire_pass) / static_cast<double>(offered)
          : 0;
  for (const auto& v : verify) r.decode_failures += v.failures;
  r.decode_failures += dec.stats().dropped;
  return r;
}

void print_result(const Result& r, bool last) {
  std::printf(
      "    {\"name\": \"%s\", \"shards\": %zu, \"seconds\": %.6f, "
      "\"packets\": %zu, \"bytes\": %zu, \"decode_failures\": %zu, "
      "\"wire_ratio\": %.4f, \"packets_per_s\": %.0f, "
      "\"mb_per_s\": %.2f}%s\n",
      r.name.c_str(), r.shards, r.seconds, r.packets, r.bytes,
      r.decode_failures, r.wire_ratio, r.packets_per_s(), r.mb_per_s(),
      last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t passes = 6;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") passes = 2;
  }

  // The wire-identity probe: bench_throughput's exact single-flow stream
  // (same addresses, ports, seq, MSS) through one shard.
  std::vector<FlowStream> one_flow;
  one_flow.push_back(make_flow(bench::file1(), packet::make_ip(10, 0, 0, 1),
                               packet::make_ip(10, 0, 1, 1)));

  // The scaling workload: 8 distinct host pairs, each streaming File 1.
  std::vector<FlowStream> flows;
  for (std::size_t f = 0; f < kFlows; ++f) {
    flows.push_back(
        make_flow(bench::file1(),
                  packet::make_ip(10, 0, 0, static_cast<std::uint8_t>(f + 1)),
                  packet::make_ip(10, 0, 1, static_cast<std::uint8_t>(f + 1))));
  }

  std::vector<Result> results;
  results.push_back(
      run_sharded("file1_1flow_1shard", 1, one_flow, passes));
  for (std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                             std::size_t{8}}) {
    results.push_back(run_sharded(
        "file1_8flows_" + std::to_string(shards) + "shard", shards, flows,
        passes));
  }

  std::size_t failures = 0;
  std::printf(
      "{\n  \"bench\": \"bench_mt_throughput\", \"passes\": %zu,\n"
      "  \"measure\": \"best_of_timed_passes_after_warmup\",\n"
      "  \"hardware_concurrency\": %u,\n"
      "  \"kernel\": \"%s\",\n"
      "  \"results\": [\n",
      passes, std::thread::hardware_concurrency(),
      rabin::scan_kernel().name);
  for (std::size_t i = 0; i < results.size(); ++i) {
    print_result(results[i], i + 1 == results.size());
    failures += results[i].decode_failures;
  }
  std::printf("  ]\n}\n");
  return failures == 0 ? 0 : 1;
}
