// Tests for the paper's Section VIII "potential approaches", which the
// authors describe but do not evaluate — implemented here as opt-in
// extensions: decoder->encoder NACK feedback (informed marking) and
// ACK-gated references.
#include <gtest/gtest.h>

#include "cache/cache_tier.h"
#include "core/control.h"
#include "core/decoder.h"
#include "core/encoder.h"
#include "core/flow.h"
#include "core/wire.h"
#include "gateway/gateways.h"
#include "harness/experiment.h"
#include "tests/testutil.h"
#include "workload/generators.h"

namespace bytecache {
namespace {

using testutil::test_encoder;
using testutil::make_tcp_packet;
using testutil::random_bytes;
using util::Bytes;
using util::Rng;

// ------------------------------------------------------ control format --

TEST(ControlMessage, RoundTrip) {
  core::ControlMessage msg;
  msg.fingerprints = {0x1111222233334444ull, 0xAAAABBBBCCCCDDDDull};
  const Bytes wire = msg.serialize();
  EXPECT_EQ(wire.size(), 3 + 16u);
  auto parsed = core::ControlMessage::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, core::ControlMessage::Type::kNack);
  EXPECT_EQ(parsed->fingerprints, msg.fingerprints);
}

TEST(ControlMessage, ParseRejectsMalformed) {
  EXPECT_FALSE(core::ControlMessage::parse({}).has_value());
  Bytes short_msg = {core::kControlMagic, 1};
  EXPECT_FALSE(core::ControlMessage::parse(short_msg).has_value());
  core::ControlMessage msg;
  msg.fingerprints = {42};
  Bytes wire = msg.serialize();
  wire[0] = 0x00;  // bad magic
  EXPECT_FALSE(core::ControlMessage::parse(wire).has_value());
  wire = msg.serialize();
  wire[1] = 99;  // unknown type
  EXPECT_FALSE(core::ControlMessage::parse(wire).has_value());
  wire = msg.serialize();
  wire.push_back(0);  // length mismatch
  EXPECT_FALSE(core::ControlMessage::parse(wire).has_value());
}

TEST(ControlMessage, EmptyNackAllowed) {
  core::ControlMessage msg;
  auto parsed = core::ControlMessage::parse(msg.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(parsed->fingerprints.empty());
}

// -------------------------------------------------- cache invalidation --

TEST(ByteCacheInvalidate, RemovesPacketAndAllItsEntries) {
  cache::CacheTier cache;
  std::vector<rabin::Anchor> anchors = {{0, 0xA0}, {10, 0xB0}};
  cache.update(Bytes(64, 'p'), anchors, {});
  ASSERT_TRUE(cache.invalidate(0xA0));
  EXPECT_FALSE(cache.find(0xA0).has_value());
  // The *other* fingerprint of the same packet is now stale too.
  EXPECT_FALSE(cache.find(0xB0).has_value());
  EXPECT_EQ(cache.store().size(), 0u);
}

TEST(ByteCacheInvalidate, UnknownFingerprintIsNoop) {
  cache::CacheTier cache;
  EXPECT_FALSE(cache.invalidate(0x123));
}

// ------------------------------------------------------- NACK feedback --

TEST(NackFeedback, EncoderStopsReferencingNackedPacket) {
  core::DreParams params;
  auto enc = test_encoder(core::PolicyKind::kNaive, params);
  Rng rng(1);
  const Bytes data = random_bytes(rng, 1000);

  auto p1 = make_tcp_packet(data, 1000);
  enc.process(*p1);  // cached; imagine p1 lost on the link

  auto p2 = make_tcp_packet(data, 2000);
  auto info = enc.process(*p2);
  ASSERT_TRUE(info.encoded);  // referenced the lost packet

  // Decoder would NACK the missing fingerprint; replay that to the encoder.
  auto encoded = core::EncodedPayload::parse(p2->payload);
  ASSERT_TRUE(encoded.has_value());
  ASSERT_FALSE(encoded->regions.empty());
  enc.on_nack(encoded->regions[0].fp);
  EXPECT_EQ(enc.stats().nacks_received, 1u);
  EXPECT_EQ(enc.stats().nack_invalidations, 1u);

  // A further repetition cannot reference the invalidated packet...
  auto p3 = make_tcp_packet(data, 3000);
  const auto info3 = enc.process(*p3);
  EXPECT_FALSE(info3.encoded);
  // ...but p3 itself re-primes the cache, so p4 compresses again.
  auto p4 = make_tcp_packet(data, 4000);
  EXPECT_TRUE(enc.process(*p4).encoded);
}

TEST(NackFeedback, DecoderGatewayEmitsNack) {
  core::DreParams params;
  params.nack_feedback = true;
  core::GatewayConfig gw_cfg;
  gw_cfg.params = params;
  gw_cfg.policy = core::PolicyKind::kNaive;
  gateway::EncoderGateway enc_gw(gw_cfg);
  gateway::DecoderGateway dec_gw(gw_cfg);
  Rng rng(2);
  const Bytes data = random_bytes(rng, 1000);

  std::vector<packet::PacketPtr> out;
  enc_gw.set_sink([&](packet::PacketPtr p) { out.push_back(std::move(p)); });
  enc_gw.receive(make_tcp_packet(data, 1000));
  enc_gw.receive(make_tcp_packet(data, 2000));
  ASSERT_EQ(out.size(), 2u);

  packet::PacketPtr nack;
  dec_gw.set_feedback([&](packet::PacketPtr p) { nack = std::move(p); });
  dec_gw.set_sink([](packet::PacketPtr) {});
  // Lose out[0]; the encoded out[1] is undecodable.
  dec_gw.receive(std::move(out[1]));
  ASSERT_NE(nack, nullptr);
  EXPECT_EQ(nack->ip.protocol, core::kControlProto);
  EXPECT_EQ(dec_gw.stats().nacks_sent, 1u);

  // Feed the NACK back: the encoder invalidates the lost packet.
  enc_gw.receive_control(*nack);
  EXPECT_EQ(enc_gw.encoder()->stats().nack_invalidations, 1u);
}

TEST(NackFeedback, RescuesNaiveFromTheStall) {
  // The paper's Section IV stall: naive + 1% loss wedges the connection.
  // With NACK feedback the circular dependency is broken one RTT after it
  // forms, so transfers complete — the informed-marking result.
  Rng rng(3);
  const Bytes file = workload::make_file1(rng, 300'000);
  int plain_stalls = 0;
  int feedback_stalls = 0;
  for (int i = 0; i < 5; ++i) {
    harness::ExperimentConfig cfg;
    cfg.policy = core::PolicyKind::kNaive;
    cfg.loss_rate = 0.01;
    auto plain = harness::run_trial(cfg, file, 500 + i);
    cfg.dre.nack_feedback = true;
    auto rescued = harness::run_trial(cfg, file, 500 + i);
    if (plain.stalled) ++plain_stalls;
    if (rescued.stalled) ++feedback_stalls;
    EXPECT_TRUE(rescued.verified);
  }
  EXPECT_GE(plain_stalls, 4);
  EXPECT_EQ(feedback_stalls, 0);
}

TEST(NackFeedback, WorksUnderHeavyLoss) {
  Rng rng(4);
  const Bytes file = workload::make_file1(rng, 150'000);
  harness::ExperimentConfig cfg;
  cfg.policy = core::PolicyKind::kNaive;
  cfg.dre.nack_feedback = true;
  cfg.loss_rate = 0.10;
  auto r = harness::run_trial(cfg, file, 42);
  EXPECT_TRUE(r.completed);
  EXPECT_TRUE(r.verified);
}

// ----------------------------------------------------------- ACK gating --

TEST(AckGated, NoReferencesBeforeAnyAck) {
  core::DreParams params;
  params.ack_gated = true;
  auto enc = test_encoder(core::PolicyKind::kNaive, params);
  Rng rng(5);
  const Bytes data = random_bytes(rng, 1000);
  enc.process(*make_tcp_packet(data, 1000));
  auto p2 = make_tcp_packet(data, 2000);
  EXPECT_FALSE(enc.process(*p2).encoded);
  EXPECT_GT(enc.stats().ack_gate_rejections, 0u);
}

TEST(AckGated, ReferencesOpenUpAfterAck) {
  core::DreParams params;
  params.ack_gated = true;
  auto enc = test_encoder(core::PolicyKind::kNaive, params);
  const std::uint64_t flow =
      core::flow_key_of(testutil::kSrcIp, testutil::kDstIp, 80, 40000);
  Rng rng(6);
  const Bytes data = random_bytes(rng, 1000);
  enc.process(*make_tcp_packet(data, 1000));  // covers seq [1000, 1980)

  enc.on_reverse_ack(flow, 1500);  // partial: segment not fully ACKed
  auto p2 = make_tcp_packet(data, 3000);
  EXPECT_FALSE(enc.process(*p2).encoded);
  // The cache-update pass re-pointed the entries at p2 (seq 3000..3980):
  // admission now tracks the *latest* copy, so the gate opens only once
  // that copy is covered by the cumulative ACK.
  enc.on_reverse_ack(flow, 1000 + 1000);
  auto p3 = make_tcp_packet(data, 5000);
  EXPECT_FALSE(enc.process(*p3).encoded);

  enc.on_reverse_ack(flow, 5000 + 1000);  // covers every cached copy
  auto p4 = make_tcp_packet(data, 7000);
  EXPECT_TRUE(enc.process(*p4).encoded);
}

TEST(AckGated, AckRegressionIgnored) {
  core::DreParams params;
  params.ack_gated = true;
  auto enc = test_encoder(core::PolicyKind::kNaive, params);
  const std::uint64_t flow =
      core::flow_key_of(testutil::kSrcIp, testutil::kDstIp, 80, 40000);
  Rng rng(7);
  const Bytes data = random_bytes(rng, 500);
  enc.process(*make_tcp_packet(data, 1000));
  enc.on_reverse_ack(flow, 5000);
  enc.on_reverse_ack(flow, 1200);  // stale ACK must not lower the gate
  auto p2 = make_tcp_packet(data, 9000);
  EXPECT_TRUE(enc.process(*p2).encoded);
}

TEST(AckGated, EliminatesUndecodablePacketsEntirely) {
  // The strong guarantee: every reference points to an ACKed segment,
  // which necessarily passed (and was cached by) the decoder.  No loss
  // pattern can produce an undecodable packet.
  Rng rng(8);
  const Bytes file = workload::make_file1(rng, 300'000);
  for (double loss : {0.02, 0.10}) {
    harness::ExperimentConfig cfg;
    cfg.policy = core::PolicyKind::kNaive;
    cfg.dre.ack_gated = true;
    cfg.loss_rate = loss;
    auto r = harness::run_trial(cfg, file, 77);
    EXPECT_TRUE(r.completed) << loss;
    EXPECT_TRUE(r.verified) << loss;
    EXPECT_EQ(r.decoder_drops, 0u) << loss;
    EXPECT_NEAR(r.perceived_loss, r.actual_loss, 1e-9) << loss;
  }
}

TEST(AckGated, StillSavesBytes) {
  Rng rng(9);
  const Bytes file = workload::make_file1(rng, 300'000);
  harness::ExperimentConfig cfg;
  cfg.policy = core::PolicyKind::kNaive;
  cfg.dre.ack_gated = true;
  auto r = harness::run_trial(cfg, file, 78);
  ASSERT_TRUE(r.completed);
  // References lag one RTT, so savings are smaller than unrestricted DRE
  // but must still be substantial on File 1.
  EXPECT_LT(r.payload_bytes_out, r.payload_bytes_in * 9 / 10);
}

}  // namespace
}  // namespace bytecache
