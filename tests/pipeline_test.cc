// Gateway and pipeline wiring tests.
#include <gtest/gtest.h>

#include "app/file_transfer.h"
#include "app/pipeline.h"
#include "app/udp_stream.h"
#include "gateway/gateways.h"
#include "tests/testutil.h"
#include "workload/generators.h"

namespace bytecache::gateway {
namespace {

using app::Pipeline;
using app::PipelineConfig;
using testutil::make_tcp_packet;
using testutil::random_bytes;
using util::Bytes;
using util::Rng;

core::GatewayConfig make_cfg(core::PolicyKind kind,
                             const core::DreParams& params = {}) {
  core::GatewayConfig cfg;
  cfg.params = params;
  cfg.policy = kind;
  return cfg;
}

// ------------------------------------------------------------ gateways --

TEST(EncoderGateway, DisabledIsTransparent) {
  EncoderGateway gw(make_cfg(core::PolicyKind::kNone));
  EXPECT_FALSE(gw.enabled());
  Rng rng(1);
  const Bytes data = random_bytes(rng, 500);
  packet::PacketPtr forwarded;
  gw.set_sink([&](packet::PacketPtr p) { forwarded = std::move(p); });
  auto pkt = make_tcp_packet(data, 1000);
  const Bytes original = pkt->payload;
  gw.receive(std::move(pkt));
  ASSERT_NE(forwarded, nullptr);
  EXPECT_EQ(forwarded->payload, original);
}

TEST(EncoderGateway, EncodesRepeatedContent) {
  EncoderGateway gw(make_cfg(core::PolicyKind::kNaive));
  ASSERT_TRUE(gw.enabled());
  Rng rng(2);
  const Bytes data = random_bytes(rng, 1000);
  std::vector<packet::PacketPtr> out;
  gw.set_sink([&](packet::PacketPtr p) { out.push_back(std::move(p)); });
  gw.receive(make_tcp_packet(data, 1000));
  gw.receive(make_tcp_packet(data, 2000));
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0]->proto(), packet::IpProto::kTcp);
  EXPECT_EQ(out[1]->proto(), packet::IpProto::kDre);
  EXPECT_LT(out[1]->payload.size(), out[0]->payload.size());
}

TEST(EncoderGateway, ObserverSeesEncodeInfo) {
  EncoderGateway gw(make_cfg(core::PolicyKind::kNaive));
  Rng rng(3);
  const Bytes data = random_bytes(rng, 1000);
  std::vector<core::EncodeInfo> infos;
  gw.add_observer([&](const core::EncodeInfo& i) { infos.push_back(i); });
  gw.set_sink([](packet::PacketPtr) {});
  gw.receive(make_tcp_packet(data, 1000));
  gw.receive(make_tcp_packet(data, 2000));
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_FALSE(infos[0].encoded);
  EXPECT_TRUE(infos[1].encoded);
}

TEST(DecoderGateway, DropsUndecodable) {
  core::DreParams params;
  EncoderGateway enc(make_cfg(core::PolicyKind::kNaive, params));
  DecoderGateway dec(make_cfg(core::PolicyKind::kNaive, params));
  Rng rng(4);
  const Bytes data = random_bytes(rng, 1000);

  std::vector<packet::PacketPtr> encoded;
  enc.set_sink([&](packet::PacketPtr p) { encoded.push_back(std::move(p)); });
  enc.receive(make_tcp_packet(data, 1000));
  enc.receive(make_tcp_packet(data, 2000));
  ASSERT_EQ(encoded.size(), 2u);

  int delivered = 0;
  dec.set_sink([&](packet::PacketPtr) { ++delivered; });
  // First packet "lost": feed only the second (encoded) one.
  dec.receive(std::move(encoded[1]));
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(dec.stats().dropped, 1u);
}

TEST(DecoderGateway, DisabledForwardsEverything) {
  DecoderGateway dec(make_cfg(core::PolicyKind::kNone));
  EXPECT_FALSE(dec.enabled());
  int delivered = 0;
  dec.set_sink([&](packet::PacketPtr) { ++delivered; });
  Rng rng(5);
  dec.receive(make_tcp_packet(random_bytes(rng, 100), 1));
  EXPECT_EQ(delivered, 1);
}

// ------------------------------------------------------------ pipeline --

TEST(Pipeline, TransfersFileWithoutDre) {
  sim::Simulator sim;
  PipelineConfig cfg;
  cfg.policy = core::PolicyKind::kNone;
  Pipeline pipeline(sim, cfg);
  Rng rng(6);
  const Bytes file = workload::make_file1(rng, 100'000);
  app::FileTransfer transfer(sim, pipeline, file);
  transfer.run_to_completion();
  ASSERT_TRUE(transfer.done());
  EXPECT_TRUE(transfer.result().completed);
  EXPECT_TRUE(transfer.result().verified);
  EXPECT_EQ(transfer.result().delivered_bytes, file.size());
}

TEST(Pipeline, TransfersFileWithEachPolicyNoLoss) {
  for (auto kind : {core::PolicyKind::kNaive, core::PolicyKind::kCacheFlush,
                    core::PolicyKind::kTcpSeq, core::PolicyKind::kKDistance}) {
    sim::Simulator sim;
    PipelineConfig cfg;
    cfg.policy = kind;
    Pipeline pipeline(sim, cfg);
    Rng rng(7);
    const Bytes file = workload::make_file1(rng, 150'000);
    app::FileTransfer transfer(sim, pipeline, file);
    transfer.run_to_completion();
    EXPECT_TRUE(transfer.result().completed)
        << core::to_string(kind);
    EXPECT_TRUE(transfer.result().verified) << core::to_string(kind);
  }
}

TEST(Pipeline, DreReducesWireBytesOnRedundantFile) {
  Rng rng(8);
  const Bytes file = workload::make_file1(rng, 200'000);

  auto wire_bytes = [&](core::PolicyKind kind) {
    sim::Simulator sim;
    PipelineConfig cfg;
    cfg.policy = kind;
    Pipeline pipeline(sim, cfg);
    app::FileTransfer transfer(sim, pipeline, file);
    transfer.run_to_completion();
    EXPECT_TRUE(transfer.result().completed);
    return pipeline.forward_link().stats().bytes_sent;
  };
  const auto without = wire_bytes(core::PolicyKind::kNone);
  const auto with = wire_bytes(core::PolicyKind::kCacheFlush);
  EXPECT_LT(static_cast<double>(with), 0.75 * static_cast<double>(without));
}

TEST(Pipeline, DreReducesDownloadTimeOnCleanLink) {
  Rng rng(9);
  const Bytes file = workload::make_file1(rng, 300'000);
  auto duration = [&](core::PolicyKind kind) {
    sim::Simulator sim;
    PipelineConfig cfg;
    cfg.policy = kind;
    Pipeline pipeline(sim, cfg);
    app::FileTransfer transfer(sim, pipeline, file);
    transfer.run_to_completion();
    EXPECT_TRUE(transfer.result().completed);
    return transfer.result().duration_s;
  };
  EXPECT_LT(duration(core::PolicyKind::kCacheFlush),
            duration(core::PolicyKind::kNone));
}

TEST(Pipeline, EndToEndBytesVerifiedUnderLoss) {
  for (auto kind : {core::PolicyKind::kCacheFlush, core::PolicyKind::kTcpSeq,
                    core::PolicyKind::kKDistance}) {
    sim::Simulator sim;
    PipelineConfig cfg;
    cfg.policy = kind;
    cfg.loss_rate = 0.03;
    cfg.seed = 11;
    Pipeline pipeline(sim, cfg);
    Rng rng(10);
    const Bytes file = workload::make_file1(rng, 150'000);
    app::FileTransfer transfer(sim, pipeline, file);
    transfer.run_to_completion();
    ASSERT_TRUE(transfer.done());
    EXPECT_TRUE(transfer.result().completed) << core::to_string(kind);
    // The invariant that matters most: NEVER deliver wrong bytes.
    EXPECT_TRUE(transfer.result().verified) << core::to_string(kind);
  }
}

// ---------------------------------------------------------- udp stream --

TEST(UdpStream, StreamsOverPipelineWithKDistance) {
  sim::Simulator sim;
  core::DreParams dre;
  dre.k_distance = 8;
  EncoderGateway enc(make_cfg(core::PolicyKind::kKDistance, dre));
  DecoderGateway dec(make_cfg(core::PolicyKind::kKDistance, dre));
  sim::LinkConfig lcfg;
  lcfg.queue_packets = 1 << 16;
  sim::Link link(sim, lcfg, std::make_unique<sim::BernoulliLoss>(0.05),
                 util::Rng(12));

  app::UdpStreamConfig ucfg;
  app::UdpSink sink(ucfg);
  app::UdpSource source(sim, ucfg, [&](packet::PacketPtr p) {
    enc.receive(std::move(p));
  });
  enc.set_sink([&](packet::PacketPtr p) { link.send(std::move(p)); });
  link.set_sink([&](packet::PacketPtr p) { dec.receive(std::move(p)); });
  dec.set_sink([&](packet::PacketPtr p) { sink.on_packet(*p); });

  Rng rng(13);
  // A redundant media-like stream.
  const Bytes media = workload::make_file1(rng, 200'000);
  bool sent_all = false;
  source.start(media, [&] { sent_all = true; });
  sim.run();
  EXPECT_TRUE(sent_all);
  EXPECT_GT(sink.datagrams_received(), source.datagrams_sent() / 2);
  // Perceived loss bounded: channel 5% plus a bounded cascade.
  EXPECT_LT(sink.loss_rate(), 0.30);
  EXPECT_GT(sink.loss_rate(), 0.01);
}

}  // namespace
}  // namespace bytecache::gateway
