// Microbenchmarks: encoder/decoder throughput and cache operations.
#include <benchmark/benchmark.h>

#include <chrono>

#include "cache/cache_tier.h"
#include "cache/fingerprint_table.h"
#include "core/decoder.h"
#include "core/encoder.h"
#include "core/factory.h"
#include "core/matcher.h"
#include "fec/gf256.h"
#include "packet/packet.h"
#include "packet/tcp.h"
#include "rabin/scan_kernel.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace {

using namespace bytecache;

std::vector<packet::PacketPtr> packets_of(const util::Bytes& object) {
  std::vector<packet::PacketPtr> out;
  std::uint32_t seq = 1000;
  for (std::size_t off = 0; off < object.size(); off += 1460) {
    const std::size_t len = std::min<std::size_t>(1460, object.size() - off);
    packet::TcpHeader h;
    h.seq = seq;
    h.flags = packet::TcpHeader::kAck;
    seq += static_cast<std::uint32_t>(len);
    util::Bytes segment;
    h.serialize(segment, util::BytesView(object.data() + off, len),
                0x0A000001, 0x0A000101);
    out.push_back(packet::make_packet(0x0A000001, 0x0A000101,
                                      packet::IpProto::kTcp,
                                      std::move(segment)));
  }
  return out;
}

const util::Bytes& redundant_object() {
  static const util::Bytes obj = [] {
    util::Rng rng(2);
    return workload::make_file1(rng, 400 * 1460);
  }();
  return obj;
}

void BM_EncodeRedundantStream(benchmark::State& state) {
  const auto& object = redundant_object();
  for (auto _ : state) {
    core::DreParams params;
    core::Encoder enc(params,
                      core::make_policy(core::PolicyKind::kNaive, params));
    for (const auto& pkt : packets_of(object)) {
      auto copy = packet::clone_packet(*pkt);
      benchmark::DoNotOptimize(enc.process(*copy));
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          object.size());
}
BENCHMARK(BM_EncodeRedundantStream)->Unit(benchmark::kMillisecond);

void BM_EncodeIncompressibleStream(benchmark::State& state) {
  util::Rng rng(3);
  const auto object = workload::make_video(rng, 400 * 1460);
  for (auto _ : state) {
    core::DreParams params;
    core::Encoder enc(params,
                      core::make_policy(core::PolicyKind::kNaive, params));
    for (const auto& pkt : packets_of(object)) {
      auto copy = packet::clone_packet(*pkt);
      benchmark::DoNotOptimize(enc.process(*copy));
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          object.size());
}
BENCHMARK(BM_EncodeIncompressibleStream)->Unit(benchmark::kMillisecond);

void BM_EncodeDecodeRoundTrip(benchmark::State& state) {
  const auto& object = redundant_object();
  for (auto _ : state) {
    core::DreParams params;
    core::Encoder enc(params,
                      core::make_policy(core::PolicyKind::kNaive, params));
    core::Decoder dec(params);
    for (const auto& pkt : packets_of(object)) {
      auto copy = packet::clone_packet(*pkt);
      enc.process(*copy);
      benchmark::DoNotOptimize(dec.process(*copy));
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          object.size());
}
BENCHMARK(BM_EncodeDecodeRoundTrip)->Unit(benchmark::kMillisecond);

void BM_CacheUpdate(benchmark::State& state) {
  util::Rng rng(4);
  util::Bytes payload(1480);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
  rabin::RabinTables tables(16);
  const auto anchors = rabin::selected_anchors(tables, payload, 4);
  for (auto _ : state) {
    cache::CacheTier cache;
    for (int i = 0; i < 100; ++i) {
      cache.update(payload, anchors, {});
    }
    benchmark::DoNotOptimize(cache);
  }
}
BENCHMARK(BM_CacheUpdate);

void BM_CacheFind(benchmark::State& state) {
  util::Rng rng(5);
  util::Bytes payload(1480);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
  rabin::RabinTables tables(16);
  const auto anchors = rabin::selected_anchors(tables, payload, 4);
  cache::CacheTier cache;
  cache.update(payload, anchors, {});
  for (auto _ : state) {
    for (const auto& a : anchors) {
      benchmark::DoNotOptimize(cache.find(a.fp));
    }
  }
}
BENCHMARK(BM_CacheFind);

// A copied byte's costs: growing a fingerprint hit into the whole
// repeated region, and pointing a packet's fingerprints at it in the
// index (and purging them when it leaves).

// One hit in the middle of a 1,460-byte payload the stored one repeats
// in full: the match grows 722 bytes left and 722 right.
void BM_ExpandMatch(benchmark::State& state) {
  util::Rng rng(9);
  util::Bytes payload(1460);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
  const util::Bytes stored = payload;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::expand_match(payload, 722, stored, 722, 16, 0));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
}
BENCHMARK(BM_ExpandMatch);

// The index of one codec with a 2 MiB L1 (262,144 slots) holding
// churn_mix's ~140k entries: kIndexPackets live packets of one MSS
// payload's anchors each, oldest evicted first.
constexpr std::size_t kAnchorsPerPacket = 1460 / cache::kBytesPerAnchor;
constexpr std::size_t kIndexPackets = 140000 / kAnchorsPerPacket;

struct IndexRig {
  cache::FingerprintTable table;
  /// Anchor list of each packet; one more than are live, so the list
  /// put next was purged when its last owner left.
  std::vector<std::vector<rabin::Anchor>> lists;
  std::vector<rabin::Fingerprint> fps;  // scratch: one list's fingerprints
  std::uint64_t next_id = 1;

  IndexRig() : lists(kIndexPackets + 1) {
    table.reserve((std::size_t{2} << 20) / cache::kBytesPerAnchor);
    util::Rng rng(10);
    for (auto& list : lists) {
      for (std::size_t i = 0; i < kAnchorsPerPacket; ++i) {
        list.push_back(rabin::Anchor{
            static_cast<std::uint16_t>(i * cache::kBytesPerAnchor),
            rng.next_u64() << 4});
      }
    }
    for (std::size_t k = 0; k < kIndexPackets; ++k) {
      const std::uint64_t id = next_id++;
      table.put_anchors(id, list_of(id));
    }
  }

  /// Live packet ids are [next_id - kIndexPackets, next_id); packet `id`
  /// holds list id % lists.size().
  [[nodiscard]] const std::vector<rabin::Anchor>& list_of(
      std::uint64_t id) const {
    return lists[id % lists.size()];
  }

  /// Evicts the oldest packet (purging what it still owns); returns the
  /// number of entries purged and the purge's duration in seconds.
  double purge_oldest(std::size_t& purged) {
    const std::uint64_t oldest = next_id - kIndexPackets;
    fps.clear();
    for (const rabin::Anchor& a : list_of(oldest)) fps.push_back(a.fp);
    const auto t0 = std::chrono::steady_clock::now();
    purged = table.purge(oldest, fps);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  }
};

// Arg 0: a literal packet's fingerprints, all new to the index (the
// oldest packet is purged untimed first, holding occupancy steady).
// Arg 1: a copied packet's fingerprints, every one taken over from the
// older packet that held the same content (hot_replay's case).
void BM_IndexPutAnchors(benchmark::State& state) {
  IndexRig rig;
  const bool copied = state.range(0) != 0;
  for (auto _ : state) {
    std::size_t purged = 0;
    if (!copied) (void)rig.purge_oldest(purged);
    const std::uint64_t id = rig.next_id++;
    // A copy cycles through the lists the initial fill put (never the
    // spare), so each of its entries has an owner to take over from.
    const auto& anchors =
        copied ? rig.lists[1 + id % kIndexPackets] : rig.list_of(id);
    const auto t0 = std::chrono::steady_clock::now();
    rig.table.put_anchors(id, anchors);
    state.SetIterationTime(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
  }
  state.counters["entries"] = static_cast<double>(rig.table.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kAnchorsPerPacket));
}
BENCHMARK(BM_IndexPutAnchors)->Arg(0)->Arg(1)->UseManualTime();

// The eviction purge of a packet that still owns all its entries, then
// (untimed) a literal packet's put to refill the index.
void BM_IndexPurge(benchmark::State& state) {
  IndexRig rig;
  std::size_t total = 0;
  for (auto _ : state) {
    std::size_t purged = 0;
    state.SetIterationTime(rig.purge_oldest(purged));
    total += purged;
    const std::uint64_t id = rig.next_id++;
    rig.table.put_anchors(id, rig.list_of(id));
  }
  benchmark::DoNotOptimize(total);
  state.counters["entries"] = static_cast<double>(rig.table.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kAnchorsPerPacket));
}
BENCHMARK(BM_IndexPurge)->UseManualTime();

// A literal packet's probe: one MSS payload's anchors, none of them in
// the index (churn_mix's common case), each lookup ending at its home
// bucket or the first one past it with a zero overflow count.
void BM_IndexProbe(benchmark::State& state) {
  IndexRig rig;
  util::Rng rng(11);
  std::vector<std::vector<rabin::Anchor>> absent(64);
  for (auto& list : absent) {
    for (std::size_t i = 0; i < kAnchorsPerPacket; ++i) {
      list.push_back(rabin::Anchor{
          static_cast<std::uint16_t>(i * cache::kBytesPerAnchor),
          rng.next_u64() << 4});
    }
  }
  std::vector<cache::ProbeResult> out(kAnchorsPerPacket);
  std::size_t found = 0;
  std::size_t k = 0;
  for (auto _ : state) {
    rig.table.probe_batch(absent[k++ % absent.size()], out);
    for (const cache::ProbeResult& r : out) found += r.found ? 1 : 0;
  }
  benchmark::DoNotOptimize(found);
  state.counters["entries"] = static_cast<double>(rig.table.size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kAnchorsPerPacket));
}
BENCHMARK(BM_IndexProbe);

// The per-byte kernels every literal pays for, dispatched (util/simd.h)
// and as their scalar references, over one MSS payload.  The label
// names the tier that ran.
util::Bytes mss_payload(std::uint64_t seed) {
  util::Rng rng(seed);
  util::Bytes payload(1460);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next_u64());
  return payload;
}

template <std::uint32_t (*Crc)(util::BytesView, std::uint32_t)>
void crc32_bench(benchmark::State& state, const char* tier) {
  const util::Bytes payload = mss_payload(6);
  for (auto _ : state) benchmark::DoNotOptimize(Crc(payload, 0));
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(payload.size()));
  state.SetLabel(tier);
}

void BM_Crc32(benchmark::State& state) {
  crc32_bench<&util::crc32>(state, util::crc32_kernel());
}
BENCHMARK(BM_Crc32);

void BM_Crc32Scalar(benchmark::State& state) {
  crc32_bench<&util::crc32_scalar>(state, "slice8");
}
BENCHMARK(BM_Crc32Scalar);

template <void (*Axpy)(std::uint8_t*, const std::uint8_t*, std::size_t,
                       std::uint8_t)>
void gf_axpy_bench(benchmark::State& state, const char* tier) {
  const util::Bytes src = mss_payload(7);
  util::Bytes dst = mss_payload(8);
  std::uint8_t c = 2;
  for (auto _ : state) {
    Axpy(dst.data(), src.data(), src.size(), c);
    c = static_cast<std::uint8_t>(c == 255 ? 2 : c + 1);  // c > 1
    benchmark::DoNotOptimize(dst.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(src.size()));
  state.SetLabel(tier);
}

void BM_GfAxpy(benchmark::State& state) {
  gf_axpy_bench<&fec::gf_axpy>(state, fec::gf_kernel());
}
BENCHMARK(BM_GfAxpy);

void BM_GfAxpyScalar(benchmark::State& state) {
  gf_axpy_bench<&fec::gf_axpy_scalar>(state, "scalar");
}
BENCHMARK(BM_GfAxpyScalar);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  // Stamp every dispatched tier, as bench_micro_rabin does the scan's.
  benchmark::AddCustomContext("scan_kernel", rabin::scan_kernel().name);
  benchmark::AddCustomContext("crc32_kernel", util::crc32_kernel());
  benchmark::AddCustomContext("gf_kernel", fec::gf_kernel());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
