// Tests for the observability substrate: event traces and pcap capture.
#include <gtest/gtest.h>

#include <cstdio>

#include "app/file_transfer.h"
#include "app/pipeline.h"
#include "sim/pcap.h"
#include "sim/trace.h"
#include "workload/generators.h"

namespace bytecache::sim {
namespace {

using util::Bytes;
using util::Rng;

// -------------------------------------------------------------- trace --

TEST(Trace, RecordsAndCounts) {
  Trace trace;
  trace.record(ms(1), TraceEvent::kSend, 42, 1500);
  trace.record(ms(2), TraceEvent::kLoss, 42);
  trace.record(ms(3), TraceEvent::kSend, 43, 1500);
  EXPECT_EQ(trace.records().size(), 3u);
  EXPECT_EQ(trace.count(TraceEvent::kSend), 2u);
  EXPECT_EQ(trace.count(TraceEvent::kLoss), 1u);
  EXPECT_EQ(trace.count(TraceEvent::kDecode), 0u);
}

TEST(Trace, RendersHumanReadableAndCsv) {
  Trace trace;
  trace.record(ms(5), TraceEvent::kEncode, 7, 900);
  const std::string text = trace.to_string();
  EXPECT_NE(text.find("encode"), std::string::npos);
  EXPECT_NE(text.find("uid=7"), std::string::npos);
  const std::string csv = trace.to_csv();
  EXPECT_NE(csv.find("time_us,event,uid,aux"), std::string::npos);
  EXPECT_NE(csv.find("5000,encode,7,900"), std::string::npos);
}

TEST(Trace, ClearEmpties) {
  Trace trace;
  trace.record(0, TraceEvent::kSend, 1);
  trace.clear();
  EXPECT_TRUE(trace.records().empty());
}

TEST(Trace, EventNamesAreDistinct) {
  constexpr TraceEvent kLast = TraceEvent::kResync;  // last enumerator
  std::set<std::string> names;
  for (int i = 0; i <= static_cast<int>(kLast); ++i) {
    names.insert(to_string(static_cast<TraceEvent>(i)));
  }
  EXPECT_EQ(names.size(), static_cast<std::size_t>(kLast) + 1);
  EXPECT_EQ(names.count("?"), 0u);
}

TEST(Trace, PipelineEmitsConsistentEventFlow) {
  sim::Simulator sim;
  app::PipelineConfig cfg;
  cfg.policy = core::PolicyKind::kCacheFlush;
  cfg.dre.nack_feedback = true;
  cfg.dre.epoch_resync = true;
  cfg.loss_rate = 0.03;
  cfg.seed = 3;
  app::Pipeline pipeline(sim, cfg);
  Trace trace;
  pipeline.attach_trace(&trace);

  Rng rng(1);
  const Bytes file = workload::make_file1(rng, 100'000);
  app::FileTransfer transfer(sim, pipeline, file);
  transfer.run_to_completion();
  ASSERT_TRUE(transfer.result().completed);
  sim.run();  // drain in-flight packets and idle timers

  // Conservation: every send is eventually lost, queue-dropped, or
  // delivered (the simulation was drained above).
  const auto sends = trace.count(TraceEvent::kSend);
  const auto ends = trace.count(TraceEvent::kLoss) +
                    trace.count(TraceEvent::kQueueDrop) +
                    trace.count(TraceEvent::kDeliver);
  EXPECT_EQ(sends, ends);
  EXPECT_GT(trace.count(TraceEvent::kEncode), 0u);
  EXPECT_GT(trace.count(TraceEvent::kLoss), 0u);
  // Decoder events match the gateway stats.
  const gateway::DecoderGatewayStats& dec = pipeline.decoder_gw().stats();
  EXPECT_EQ(trace.count(TraceEvent::kDecodeDrop), dec.dropped);
  // So do the feedback events the pipeline records on the reverse path.
  EXPECT_EQ(trace.count(TraceEvent::kNack), dec.nacks_sent);
  EXPECT_EQ(trace.count(TraceEvent::kLossReport), dec.loss_reports_sent);
  EXPECT_EQ(trace.count(TraceEvent::kResync), dec.resyncs_sent);
  // CacheFlush flushed at least once under loss.
  EXPECT_GT(trace.count(TraceEvent::kFlush), 0u);
  // Timestamps are monotone.
  SimTime last = 0;
  for (const auto& r : trace.records()) {
    EXPECT_GE(r.time, last);
    last = r.time;
  }
}

// --------------------------------------------------------------- pcap --

TEST(Pcap, GlobalHeaderLayout) {
  PcapWriter pcap;
  const auto& d = pcap.data();
  ASSERT_EQ(d.size(), 24u);
  // Little-endian magic 0xA1B2C3D4.
  EXPECT_EQ(d[0], 0xD4);
  EXPECT_EQ(d[1], 0xC3);
  EXPECT_EQ(d[2], 0xB2);
  EXPECT_EQ(d[3], 0xA1);
  // Version 2.4.
  EXPECT_EQ(d[4], 2);
  EXPECT_EQ(d[6], 4);
  // Linktype RAW = 101 at offset 20.
  EXPECT_EQ(d[20], 101);
}

TEST(Pcap, RecordCarriesWireBytesAndTimestamp) {
  PcapWriter pcap;
  auto pkt = packet::make_packet(0x01020304, 0x05060708,
                                 packet::IpProto::kUdp,
                                 util::to_bytes("payload"));
  pcap.add(*pkt, sec(3) + us(250));
  EXPECT_EQ(pcap.packet_count(), 1u);
  const auto& d = pcap.data();
  const std::size_t rec = 24;
  auto u32le = [&](std::size_t off) {
    return static_cast<std::uint32_t>(d[off]) |
           static_cast<std::uint32_t>(d[off + 1]) << 8 |
           static_cast<std::uint32_t>(d[off + 2]) << 16 |
           static_cast<std::uint32_t>(d[off + 3]) << 24;
  };
  EXPECT_EQ(u32le(rec), 3u);        // seconds
  EXPECT_EQ(u32le(rec + 4), 250u);  // microseconds
  const std::uint32_t len = u32le(rec + 8);
  EXPECT_EQ(len, pkt->wire_size());
  EXPECT_EQ(u32le(rec + 12), len);
  // The record body parses back as our packet.
  const util::BytesView body(d.data() + rec + 16, len);
  auto parsed = packet::from_wire(body);
  ASSERT_NE(parsed, nullptr);
  EXPECT_EQ(parsed->ip.src, 0x01020304u);
  EXPECT_EQ(util::to_string(util::BytesView(parsed->payload)), "payload");
}

TEST(Pcap, CapturesPipelineTraffic) {
  sim::Simulator sim;
  app::PipelineConfig cfg;
  cfg.policy = core::PolicyKind::kTcpSeq;
  app::Pipeline pipeline(sim, cfg);
  PcapWriter pcap;
  pipeline.attach_pcap(&pcap);

  Rng rng(2);
  const Bytes file = workload::make_file1(rng, 60'000);
  app::FileTransfer transfer(sim, pipeline, file);
  transfer.run_to_completion();
  ASSERT_TRUE(transfer.result().completed);
  EXPECT_EQ(pcap.packet_count(),
            pipeline.forward_link().stats().packets_offered);
  EXPECT_GT(pcap.data().size(), 24u);
}

TEST(Pcap, SaveWritesFile) {
  PcapWriter pcap;
  auto pkt = packet::make_packet(1, 2, packet::IpProto::kTcp,
                                 Bytes(64, 'x'));
  pcap.add(*pkt, ms(1));
  const std::string path = ::testing::TempDir() + "bc_pcap_test.pcap";
  ASSERT_TRUE(pcap.save(path));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_EQ(static_cast<std::size_t>(std::ftell(f)), pcap.data().size());
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(Pcap, SaveToInvalidPathFails) {
  PcapWriter pcap;
  EXPECT_FALSE(pcap.save("/nonexistent-dir-xyz/out.pcap"));
}

}  // namespace
}  // namespace bytecache::sim
