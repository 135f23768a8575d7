// Telemetry subsystem tests (ctest label "telemetry"): histogram bucket
// edges, snapshot merge algebra, registry membership kinds, exporter
// golden files (tests/data/, regenerate with BC_REGEN_GOLDEN=1), and the
// sharded-equals-plain snapshot pin that makes cross-shard merging
// trustworthy.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "app/file_transfer.h"
#include "app/pipeline.h"
#include "gateway/sharded_gateways.h"
#include "harness/experiment.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/simulator.h"
#include "tests/testutil.h"
#include "workload/generators.h"

#ifndef BC_TEST_DATA_DIR
#error "BC_TEST_DATA_DIR must be defined by the build (tests/CMakeLists.txt)"
#endif

namespace bytecache {
namespace {

using obs::Histogram;
using obs::MergeOp;
using obs::MetricKind;
using obs::MetricValue;
using obs::Snapshot;

// ---------------------------------------------------- histogram edges --

TEST(ObsHistogram, BucketEdges) {
  // Bucket i is exactly the values of bit width i: 0 -> 0, 1 -> 1,
  // [2^(i-1), 2^i - 1] -> i.
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(1023), 10u);
  EXPECT_EQ(Histogram::bucket_of(1024), 11u);
  EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64u);

  EXPECT_EQ(Histogram::upper_bound(0), 0u);
  EXPECT_EQ(Histogram::upper_bound(1), 1u);
  EXPECT_EQ(Histogram::upper_bound(2), 3u);
  EXPECT_EQ(Histogram::upper_bound(10), 1023u);
  EXPECT_EQ(Histogram::upper_bound(64), ~std::uint64_t{0});
  // Every value lands within its bucket's bounds.
  for (std::size_t i = 1; i < Histogram::kBuckets; ++i) {
    EXPECT_GT(Histogram::upper_bound(i), Histogram::upper_bound(i - 1));
    EXPECT_EQ(Histogram::bucket_of(Histogram::upper_bound(i)), i);
  }
}

TEST(ObsHistogram, RecordTracksCountSumMax) {
  Histogram h;
  h.record(0);
  h.record(1);
  h.record(1);
  h.record(1000);
  h.record(~std::uint64_t{0});
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 0 + 1 + 1 + 1000 + ~std::uint64_t{0});
  EXPECT_EQ(h.max(), ~std::uint64_t{0});
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 2u);
  EXPECT_EQ(h.buckets()[10], 1u);
  EXPECT_EQ(h.buckets()[64], 1u);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0u);
}

// ------------------------------------------------------- merge algebra --

MetricValue counter_value(std::string name, std::uint64_t v) {
  MetricValue m;
  m.name = std::move(name);
  m.kind = MetricKind::kCounter;
  m.counter = v;
  return m;
}

MetricValue gauge_value(std::string name, double v, MergeOp op) {
  MetricValue m;
  m.name = std::move(name);
  m.kind = MetricKind::kGauge;
  m.merge = op;
  m.gauge = v;
  return m;
}

MetricValue hist_value(std::string name,
                       const std::vector<std::uint64_t>& samples) {
  Histogram h;
  for (std::uint64_t s : samples) h.record(s);
  MetricValue m;
  m.name = std::move(name);
  m.kind = MetricKind::kHistogram;
  m.hist.buckets = h.buckets();
  m.hist.count = h.count();
  m.hist.sum = h.sum();
  m.hist.max = h.max();
  return m;
}

void expect_snapshots_equal(const Snapshot& a, const Snapshot& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const MetricValue& x = a.entries()[i];
    const MetricValue& y = b.entries()[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.kind, y.kind) << x.name;
    EXPECT_EQ(x.counter, y.counter) << x.name;
    EXPECT_EQ(x.gauge, y.gauge) << x.name;
    EXPECT_EQ(x.hist.count, y.hist.count) << x.name;
    EXPECT_EQ(x.hist.sum, y.hist.sum) << x.name;
    EXPECT_EQ(x.hist.max, y.hist.max) << x.name;
    EXPECT_EQ(x.hist.buckets, y.hist.buckets) << x.name;
  }
}

Snapshot merged(const Snapshot& a, const Snapshot& b) {
  Snapshot out = a;
  out.merge_from(b);
  return out;
}

TEST(ObsSnapshot, MergeIsAssociativeAndCommutative) {
  // Three "shards" with overlapping names and every merge op except
  // kLast (which is deliberately order-dependent).
  Snapshot a, b, c;
  a.add(counter_value("encoder.packets", 10));
  a.add(gauge_value("cache.bytes", 100.0, MergeOp::kSum));
  a.add(gauge_value("loss.max", 0.25, MergeOp::kMax));
  a.add(hist_value("encode_ns", {3, 900}));
  b.add(counter_value("encoder.packets", 5));
  b.add(counter_value("decoder.packets", 7));
  b.add(gauge_value("cache.bytes", 50.0, MergeOp::kSum));
  b.add(gauge_value("loss.max", 0.75, MergeOp::kMax));
  c.add(gauge_value("loss.min", 0.1, MergeOp::kMin));
  c.add(hist_value("encode_ns", {0, 1, 1'000'000}));
  c.add(counter_value("encoder.packets", 1));

  const Snapshot left = merged(merged(a, b), c);
  const Snapshot right = merged(a, merged(b, c));
  expect_snapshots_equal(left, right);
  expect_snapshots_equal(left, merged(merged(c, b), a));

  EXPECT_EQ(left.counter("encoder.packets"), 16u);
  EXPECT_EQ(left.counter("decoder.packets"), 7u);
  EXPECT_EQ(left.gauge("cache.bytes"), 150.0);
  EXPECT_EQ(left.gauge("loss.max"), 0.75);
  EXPECT_EQ(left.gauge("loss.min"), 0.1);
  const obs::HistogramValue* h = left.histogram("encode_ns");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 5u);
  EXPECT_EQ(h->sum, 3u + 900 + 0 + 1 + 1'000'000);
  EXPECT_EQ(h->max, 1'000'000u);
  // Absent names read as zero / null.
  EXPECT_EQ(left.counter("no.such"), 0u);
  EXPECT_EQ(left.find("no.such"), nullptr);
}

TEST(ObsSnapshot, AddPrefixKeepsLookupsWorking) {
  Snapshot s;
  s.add(counter_value("packets", 3));
  s.add(counter_value("drops", 1));
  s.add_prefix("shard0");
  EXPECT_EQ(s.counter("shard0.packets"), 3u);
  EXPECT_EQ(s.counter("shard0.drops"), 1u);
  EXPECT_EQ(s.find("packets"), nullptr);
}

// ------------------------------------------------------------ registry --

TEST(ObsRegistry, OwnedMetricsAreIdempotentPerName) {
  obs::MetricsRegistry reg;
  obs::Counter& c1 = reg.counter("a");
  obs::Counter& c2 = reg.counter("a");
  EXPECT_EQ(&c1, &c2);
  c1.inc(3);
  c2.inc(4);
  EXPECT_EQ(reg.snapshot().counter("a"), 7u);
}

TEST(ObsRegistry, LinkedProbedAndProvidedValuesMergeIntoOneSnapshot) {
  obs::MetricsRegistry reg;
  std::uint64_t flow_a = 10, flow_b = 32;
  // Two links under the same name: snapshot-time merge adds them (the
  // multi-flow "tcp.sender.*" aggregation).
  reg.link_counter("flows.bytes", &flow_a);
  reg.link_counter("flows.bytes", &flow_b);
  reg.probe_counter("probe.count", [] { return std::uint64_t{5}; });
  reg.probe_gauge("probe.level", [] { return 2.5; }, MergeOp::kMax);
  obs::MetricsRegistry child;
  child.counter("child.packets").inc(9);
  reg.add_provider([&child] { return child.snapshot(); });

  Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter("flows.bytes"), 42u);
  EXPECT_EQ(snap.counter("probe.count"), 5u);
  EXPECT_EQ(snap.gauge("probe.level"), 2.5);
  EXPECT_EQ(snap.counter("child.packets"), 9u);

  flow_a = 100;  // linked values are read at snapshot time, not copied
  EXPECT_EQ(reg.snapshot().counter("flows.bytes"), 132u);
}

TEST(ObsRegistry, ResetClearsOwnedMetricsOnly) {
  obs::MetricsRegistry reg;
  reg.counter("owned").inc(5);
  std::uint64_t linked = 8;
  reg.link_counter("linked", &linked);
  reg.reset();
  EXPECT_EQ(reg.snapshot().counter("owned"), 0u);
  EXPECT_EQ(reg.snapshot().counter("linked"), 8u);
}

// ------------------------------------------------------- span sampler --

TEST(ObsSpan, SampleEveryOneRecordsEverySpan) {
  obs::MetricsRegistry reg;
  obs::SpanSampler span(reg.histogram("ns"), 1);
  for (int i = 0; i < 10; ++i) {
    auto t = span.begin();
    span.end(t);
  }
  EXPECT_EQ(reg.snapshot().histogram("ns")->count, 10u);
}

TEST(ObsSpan, DecimationAndDetachedSampler) {
  obs::MetricsRegistry reg;
  obs::SpanSampler span(reg.histogram("ns"), 64);
  for (int i = 0; i < 65; ++i) {
    auto t = span.begin();
    span.end(t);
  }
  EXPECT_EQ(reg.snapshot().histogram("ns")->count, 2u);  // calls 0 and 64

  obs::SpanSampler off;  // telemetry disabled: no histogram, no clock
  EXPECT_FALSE(off.attached());
  auto t = off.begin();
  EXPECT_FALSE(t.sampled);
  off.end(t);
}

// ------------------------------------------------------------ exporters --

std::string data_path(const char* name) {
  return std::string(BC_TEST_DATA_DIR) + "/" + name;
}

bool regen_requested() {
  const char* env = std::getenv("BC_REGEN_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Compares exporter text against the pinned file, or rewrites the pin
/// when BC_REGEN_GOLDEN is set — same contract as the wire goldens.
void check_golden_text(const char* name, const std::string& produced) {
  const std::string path = data_path(name);
  if (regen_requested()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << produced;
    ASSERT_TRUE(out.good()) << "failed to write " << path;
    return;
  }
  const std::string pinned = read_text(path);
  ASSERT_FALSE(pinned.empty())
      << path << " is missing or empty; regenerate with BC_REGEN_GOLDEN=1";
  EXPECT_EQ(pinned, produced)
      << "exporter drift in " << name
      << " — if intentional, regenerate goldens with BC_REGEN_GOLDEN=1";
}

/// A fixed snapshot covering all three kinds, a fractional gauge, and a
/// histogram with edge buckets (0, 1, mid, large).
Snapshot golden_snapshot() {
  obs::MetricsRegistry reg;
  reg.counter("encoder.packets").inc(42);
  reg.gauge("resilience.loss.perceived_max", MergeOp::kMax).set(0.0625);
  Histogram& h = reg.histogram("gateway.encoder.encode_ns");
  h.record(0);
  h.record(1);
  h.record(17);
  h.record(1000);
  h.record(1'000'000);
  return reg.snapshot();
}

TEST(ObsExport, JsonLinesMatchesPinnedGolden) {
  check_golden_text("obs_export.jsonl", obs::to_jsonl(golden_snapshot()));
}

TEST(ObsExport, JsonObjectMatchesPinnedGolden) {
  check_golden_text("obs_export.json", obs::to_json_object(golden_snapshot()));
}

// ------------------------------------------- sharded merge equals N=1 --

core::GatewayConfig quiet_cfg(std::size_t shards) {
  core::GatewayConfig cfg;
  cfg.policy = core::PolicyKind::kNaive;
  cfg.shards = shards;
  cfg.threaded = false;
  cfg.span_sample_every = 0;  // no wall-clock histograms: exact equality
  return cfg;
}

std::vector<packet::PacketPtr> deterministic_traffic() {
  util::Rng rng(0x0B5EED);  // fixed: both gateways must see identical bytes
  std::vector<packet::PacketPtr> pkts;
  const util::Bytes d1 = testutil::random_bytes(rng, 900);
  const util::Bytes d2 = testutil::random_bytes(rng, 700);
  std::uint32_t seq = 1000;
  for (int rep = 0; rep < 3; ++rep) {
    pkts.push_back(testutil::make_tcp_packet(d1, seq));
    seq += 2000;
    pkts.push_back(testutil::make_tcp_packet(d2, seq));
    seq += 2000;
  }
  return pkts;
}

TEST(ObsSharded, SingleShardSnapshotEqualsPlainGateway) {
  gateway::EncoderGateway plain(quiet_cfg(1));
  plain.set_sink([](packet::PacketPtr) {});
  for (auto& p : deterministic_traffic()) plain.receive(std::move(p));

  gateway::ShardedEncoderGateway sharded(quiet_cfg(1));
  sharded.set_sink([](packet::PacketPtr) {});
  for (auto& p : deterministic_traffic()) sharded.submit(std::move(p));
  sharded.drain_until_idle();

  expect_snapshots_equal(plain.snapshot(), sharded.snapshot());
  EXPECT_GT(plain.snapshot().counter("encoder.encoded_packets"), 0u);
}

TEST(ObsSharded, MultiShardCountersSumToPlainTotals) {
  gateway::EncoderGateway plain(quiet_cfg(1));
  plain.set_sink([](packet::PacketPtr) {});
  for (auto& p : deterministic_traffic()) plain.receive(std::move(p));

  gateway::ShardedEncoderGateway sharded(quiet_cfg(4));
  sharded.set_sink([](packet::PacketPtr) {});
  for (auto& p : deterministic_traffic()) sharded.submit(std::move(p));
  sharded.drain_until_idle();

  // One host pair: all traffic lands on one shard, and the merged
  // counters equal the plain totals even with idle shards contributing
  // zero entries.
  const Snapshot merged_snap = sharded.snapshot();
  const Snapshot plain_snap = plain.snapshot();
  for (const MetricValue& m : plain_snap.entries()) {
    if (m.kind != MetricKind::kCounter) continue;
    EXPECT_EQ(merged_snap.counter(m.name), m.counter) << m.name;
  }
  EXPECT_EQ(merged_snap.counter("gateway.encoder.packets"),
            plain_snap.counter("gateway.encoder.packets"));
}

// -------------------------------------------------- coded-repair gateway --

TEST(ObsGateway, CodedEncoderExposesItsLossTableAndRepairCounts) {
  // Coded repair alone (naive policy) keeps the per-host-pair
  // loss table: its probes and the per-generation repair histogram show
  // why repair bytes are being paid.
  core::GatewayConfig cfg = quiet_cfg(1);
  cfg.params.coded_repair = true;
  gateway::EncoderGateway gw(cfg);
  gw.set_sink([](packet::PacketPtr) {});
  util::Rng rng(0x0B5EEE);
  const std::size_t g = cfg.params.repair.generation_packets;
  std::uint32_t seq = 1000;
  for (std::size_t i = 0; i < 2 * g; ++i) {
    gw.receive(testutil::make_tcp_packet(testutil::random_bytes(rng, 600),
                                         seq));
    seq += 600;
  }
  auto dropped = testutil::make_tcp_packet(util::Bytes(100, 'x'), seq);
  gw.on_channel_drop(*dropped);

  const Snapshot snap = gw.snapshot();
  EXPECT_EQ(snap.counter("resilience.loss.offered"), 2 * g);
  EXPECT_EQ(snap.counter("resilience.loss.channel_drops"), 1u);
  EXPECT_EQ(snap.counter("resilience.loss.undecodable"), 0u);
  EXPECT_GT(snap.gauge("resilience.loss.perceived_max"), 0.0);
  EXPECT_EQ(snap.gauge("resilience.loss.flows"), 1.0);
  const obs::HistogramValue* r =
      snap.histogram("fec.encoder.repairs_per_generation");
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->count, 2u);
  EXPECT_EQ(r->sum, snap.counter("encoder.fec.repair_payloads"));
  EXPECT_EQ(r->sum, 2u * cfg.params.repair.repair_packets);  // start-up

  // Without coded repair a naive encoder keeps no table and exports
  // neither.
  gateway::EncoderGateway plain(quiet_cfg(1));
  EXPECT_EQ(plain.encoder()->loss_table(), nullptr);
  const Snapshot plain_snap = plain.snapshot();
  EXPECT_EQ(plain_snap.find("resilience.loss.offered"), nullptr);
  EXPECT_EQ(plain_snap.histogram("fec.encoder.repairs_per_generation"),
            nullptr);
}

// ------------------------------------------------- pipeline integration --

TEST(ObsPipeline, SnapshotReachesEveryLayer) {
  sim::Simulator sim;
  app::PipelineConfig cfg;
  cfg.policy = core::PolicyKind::kNaive;
  app::Pipeline pipeline(sim, cfg);
  util::Rng rng(7);
  const util::Bytes file = workload::make_file1(rng, 50'000);
  app::FileTransfer transfer(sim, pipeline, file);
  transfer.run_to_completion();
  ASSERT_TRUE(transfer.result().completed);

  const Snapshot snap = pipeline.snapshot();
  // One registry read reaches the codec, cache, gateways, links, and TCP
  // endpoints — the single-surface contract.
  EXPECT_EQ(snap.counter("encoder.packets"),
            pipeline.encoder_gw().encoder()->stats().packets);
  EXPECT_EQ(snap.counter("decoder.packets"),
            pipeline.decoder_gw().decoder()->stats().packets);
  EXPECT_EQ(snap.counter("link.forward.packets_offered"),
            pipeline.forward_link().stats().packets_offered);
  EXPECT_EQ(snap.counter("tcp.sender.bytes_sent"),
            pipeline.sender().stats().bytes_sent);
  EXPECT_EQ(snap.counter("tcp.receiver.acks_sent"),
            pipeline.receiver().stats().acks_sent);
  EXPECT_GT(snap.counter("encoder.cache.packets_inserted"), 0u);
  EXPECT_GT(snap.gauge("encoder.cache.bytes_stored"), 0.0);
  // Spans are on by default and the first packet is always sampled.
  const obs::HistogramValue* enc_ns =
      snap.histogram("gateway.encoder.encode_ns");
  ASSERT_NE(enc_ns, nullptr);
  EXPECT_GT(enc_ns->count, 0u);
}

TEST(ObsPipeline, TrialJsonEmbedsTheFullMetricsObject) {
  harness::ExperimentConfig cfg;
  cfg.policy = core::PolicyKind::kNaive;
  util::Rng rng(3);
  const util::Bytes file = workload::make_file1(rng, 20'000);
  const harness::TrialResult r = harness::run_trial(cfg, file, 1);
  ASSERT_TRUE(r.completed);
  const std::string json = harness::to_json(r);
  EXPECT_NE(json.find("\"metrics\":{"), std::string::npos);
  EXPECT_NE(json.find("\"encoder.packets\":"), std::string::npos);
  EXPECT_NE(json.find("\"link.forward.bytes_sent\":"), std::string::npos);
  EXPECT_EQ(json.back(), '}');
}

}  // namespace
}  // namespace bytecache
