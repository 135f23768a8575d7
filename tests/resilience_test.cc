// Unit tests for the resilience layer (DESIGN.md §9): the perceived-loss
// estimator, the epoch synchronizer, the decoder's epoch enforcement, the
// encoder's resync handling, recovery from a cold restart of either
// codec, and control-message routing through the (sharded) gateways.
#include <gtest/gtest.h>

#include <memory>

#include "core/control.h"
#include "core/decoder.h"
#include "core/encoder.h"
#include "core/factory.h"
#include "core/flow.h"
#include "fec/params.h"
#include "gateway/gateways.h"
#include "gateway/sharded_gateways.h"
#include "resilience/epoch_sync.h"
#include "resilience/perceived_loss.h"
#include "tests/testutil.h"
#include "workload/generators.h"

namespace bytecache {
namespace {

using resilience::EpochSyncConfig;
using resilience::EpochSynchronizer;
using resilience::PerceivedLossEstimator;

// ------------------------------------------------------------ epoch math --

TEST(EpochMath, NewerAndDistanceBasics) {
  EXPECT_TRUE(resilience::epoch_newer(1, 0));
  EXPECT_FALSE(resilience::epoch_newer(0, 1));
  EXPECT_FALSE(resilience::epoch_newer(5, 5));
  EXPECT_EQ(resilience::epoch_distance(7, 4), 3);
  EXPECT_EQ(resilience::epoch_distance(4, 4), 0);
}

TEST(EpochMath, WrapsAroundSixteenBits) {
  // 2 is three bumps after 0xFFFF on the 16-bit circle.
  EXPECT_TRUE(resilience::epoch_newer(2, 0xFFFF));
  EXPECT_FALSE(resilience::epoch_newer(0xFFFF, 2));
  EXPECT_EQ(resilience::epoch_distance(2, 0xFFFF), 3);
  // Half the circle away is "older", by convention of serial arithmetic.
  EXPECT_FALSE(resilience::epoch_newer(0x8000, 0));
}

// ------------------------------------------------------------- estimator --

TEST(PerceivedLoss, StartsAtZero) {
  PerceivedLossEstimator est;
  EXPECT_EQ(est.total_offered(), 0u);
  EXPECT_EQ(est.flows(), 0u);
  EXPECT_EQ(est.flow(42), nullptr);
}

TEST(PerceivedLoss, ConvergesNearTheDropFraction) {
  PerceivedLossEstimator est;
  // 5% of offered packets are later reported undecodable, in pairs: the
  // window counts each reported packet, so it converges to the fraction.
  for (int i = 0; i < 5000; ++i) {
    est.on_offered(1);
    if (i % 40 == 0) est.on_undecodable(1, 2);
  }
  EXPECT_NEAR(est.flow(1)->recent_loss(), 0.05, 0.01);
  est.audit();
}

TEST(PerceivedLoss, FlowsAreIsolated) {
  PerceivedLossEstimator est;
  for (int i = 0; i < 200; ++i) {
    est.on_offered(1);
    est.on_offered(2);
    est.on_undecodable(2);
  }
  EXPECT_EQ(est.flow(1)->recent_loss(), 0.0);
  EXPECT_GT(est.flow(2)->recent_loss(), 0.3);
  EXPECT_EQ(est.flows(), 2u);
  est.audit();
}

TEST(PerceivedLoss, CountsAndFlowState) {
  PerceivedLossEstimator est;
  est.on_offered(7);
  est.on_channel_drop(7);
  est.on_undecodable(7, 3);
  EXPECT_EQ(est.total_offered(), 1u);
  EXPECT_EQ(est.total_channel_drops(), 1u);
  EXPECT_EQ(est.total_undecodable(), 3u);
  const resilience::FlowLossState* f = est.flow(7);
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->offered, 1u);
  EXPECT_EQ(f->channel_drops, 1u);
  EXPECT_EQ(f->undecodable, 3u);
  est.audit();
}

TEST(PerceivedLoss, RecentLossTracksTheRateAndForgetsAnOldOne) {
  PerceivedLossEstimator est;
  for (int i = 0; i < 5000; ++i) {
    est.on_offered(3);
    if (i % 10 == 0) est.on_channel_drop(3);
  }
  const resilience::FlowLossState& s = *est.flow(3);
  EXPECT_NEAR(s.recent_loss(), 0.1, 0.01);
  EXPECT_LT(s.window_offered, resilience::kLossWindowPackets);
  // Two windows of clean packets later the old rate is all but gone,
  // while the lifetime counters still remember it.
  for (std::uint64_t i = 0; i < 2 * resilience::kLossWindowPackets; ++i) {
    est.on_offered(3);
  }
  EXPECT_LT(est.flow(3)->recent_loss(), 0.02);
  EXPECT_EQ(est.flow(3)->channel_drops, 500u);
  est.audit();
}

TEST(PerceivedLoss, RetransmissionsStampTheLossClockWithoutSampling) {
  PerceivedLossEstimator est;
  resilience::FlowLossState& pair = est.on_offered(7);
  EXPECT_EQ(est.since_loss(pair), ~std::uint64_t{0});  // never lost
  est.set_clock(5);
  est.on_retransmission(pair);
  EXPECT_EQ(pair.window_failures, 0u);  // evidence, not a sample
  EXPECT_EQ(est.total_retransmissions(), 1u);
  EXPECT_EQ(est.since_loss(pair), 0u);
  est.set_clock(9);
  EXPECT_EQ(est.since_loss(pair), 4u);
  est.on_channel_drop(7);  // every failure sample stamps too
  EXPECT_EQ(est.since_loss(*est.flow(7)), 0u);
  est.audit();
}

// ---------------------------------------------------------- synchronizer --

EpochSyncConfig tight_sync() {
  EpochSyncConfig cfg;
  cfg.resync_after = 3;
  cfg.backoff_initial_drops = 4;
  cfg.backoff_max_drops = 16;
  cfg.max_retries = 2;
  return cfg;
}

TEST(EpochSync, ArmsAfterConsecutiveUndecodable) {
  EpochSynchronizer s(tight_sync());
  EXPECT_FALSE(s.on_undecodable(0));
  EXPECT_FALSE(s.on_undecodable(0));
  EXPECT_TRUE(s.on_undecodable(0));  // third in a row
  EXPECT_EQ(s.requests(), 1u);
}

TEST(EpochSync, ProgressResetsTheRun) {
  EpochSynchronizer s(tight_sync());
  EXPECT_FALSE(s.on_undecodable(0));
  EXPECT_FALSE(s.on_undecodable(0));
  s.on_progress();  // a decode succeeded; not a desync
  EXPECT_FALSE(s.on_undecodable(0));
  EXPECT_FALSE(s.on_undecodable(0));
  EXPECT_TRUE(s.on_undecodable(0));
}

TEST(EpochSync, BackoffDoublesBetweenRequests) {
  EpochSyncConfig cfg = tight_sync();
  cfg.max_retries = 100;
  EpochSynchronizer s(cfg);
  for (int i = 0; i < 3; ++i) (void)s.on_undecodable(0);
  EXPECT_EQ(s.requests(), 1u);
  // Still undecodable, but inside the 4-drop cooldown: suppressed.
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(s.on_undecodable(0));
  EXPECT_GT(s.suppressed(), 0u);
  EXPECT_TRUE(s.on_undecodable(0));  // cooldown elapsed, run still >= 3
  EXPECT_EQ(s.requests(), 2u);
  // Second backoff is 8 drops: 7 more suppressions, then the request.
  for (int i = 0; i < 8; ++i) EXPECT_FALSE(s.on_undecodable(0));
  EXPECT_TRUE(s.on_undecodable(0));
  EXPECT_EQ(s.requests(), 3u);
  s.audit();
}

TEST(EpochSync, RetryBudgetExhaustsAndRefillsOnAdoption) {
  EpochSynchronizer s(tight_sync());  // max_retries = 2
  for (int i = 0; i < 3; ++i) (void)s.on_undecodable(0);
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(s.on_undecodable(0));
  EXPECT_TRUE(s.on_undecodable(0));
  EXPECT_EQ(s.retries_used(), 2u);
  // Budget spent: no amount of further drops yields another request.
  for (int i = 0; i < 200; ++i) EXPECT_FALSE(s.on_undecodable(0));
  // The encoder's flush arrived: budget refills.
  s.on_epoch_adopted();
  EXPECT_EQ(s.retries_used(), 0u);
  for (int i = 0; i < 2; ++i) (void)s.on_undecodable(0);
  EXPECT_TRUE(s.on_undecodable(0));
  s.audit();
}

TEST(EpochSync, FailingEpochChangeStartsAFreshEpisode) {
  EpochSynchronizer s(tight_sync());  // max_retries = 2
  // Episode at epoch 0: request sent, then suppressed inside cooldown.
  for (int i = 0; i < 3; ++i) (void)s.on_undecodable(0);
  EXPECT_EQ(s.requests(), 1u);
  EXPECT_FALSE(s.on_undecodable(0));
  // Drops start failing at epoch 1 (the fresh epoch got re-poisoned, e.g.
  // its first packet was lost): the schedule restarts — no leftover
  // cooldown, but the consecutive-run arming starts over too.
  EXPECT_FALSE(s.on_undecodable(1));
  EXPECT_FALSE(s.on_undecodable(1));
  EXPECT_TRUE(s.on_undecodable(1));
  EXPECT_EQ(s.requests(), 2u);
  // The retry budget is NOT per-episode: it still bounds total begging
  // between adoptions.
  for (int i = 0; i < 50; ++i) EXPECT_FALSE(s.on_undecodable(2));
  EXPECT_EQ(s.requests(), 2u);
  s.audit();
}

// ------------------------------------------------------ control messages --

TEST(ControlMessages, NackRoundTrip) {
  core::ControlMessage m;
  m.type = core::ControlMessage::Type::kNack;
  m.fingerprints = {0x1111222233334444ull, 0xAAAABBBBCCCCDDDDull};
  auto p = core::ControlMessage::parse(m.serialize());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->type, core::ControlMessage::Type::kNack);
  EXPECT_EQ(p->fingerprints, m.fingerprints);
}

TEST(ControlMessages, ResyncRequestRoundTrip) {
  core::ControlMessage m;
  m.type = core::ControlMessage::Type::kResyncRequest;
  m.epoch = 0xBEEF;
  auto p = core::ControlMessage::parse(m.serialize());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->type, core::ControlMessage::Type::kResyncRequest);
  EXPECT_EQ(p->epoch, 0xBEEF);
}

TEST(ControlMessages, LossReportRoundTrip) {
  core::ControlMessage m;
  m.type = core::ControlMessage::Type::kLossReport;
  m.host_key = 0x0123456789ABCDEFull;
  m.count = 7;
  auto p = core::ControlMessage::parse(m.serialize());
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->type, core::ControlMessage::Type::kLossReport);
  EXPECT_EQ(p->host_key, 0x0123456789ABCDEFull);
  EXPECT_EQ(p->count, 7);
}

TEST(ControlMessages, ParseRejectsWrongSizesAndTypes) {
  core::ControlMessage m;
  m.type = core::ControlMessage::Type::kLossReport;
  util::Bytes wire = m.serialize();
  wire.push_back(0);  // one byte too many for the claimed type
  EXPECT_FALSE(core::ControlMessage::parse(wire).has_value());
  wire = m.serialize();
  wire.pop_back();
  EXPECT_FALSE(core::ControlMessage::parse(wire).has_value());
  wire = m.serialize();
  wire[1] = 99;  // unknown type
  EXPECT_FALSE(core::ControlMessage::parse(wire).has_value());
  EXPECT_FALSE(core::ControlMessage::parse({}).has_value());
}

// ----------------------------------------------------- codec epoch tests --

core::DreParams resync_params() {
  core::DreParams p;
  p.epoch_resync = true;
  p.epoch_sync = tight_sync();
  return p;
}

/// Clones a (possibly encoded) packet so it can be replayed.
packet::PacketPtr clone(const packet::Packet& pkt) {
  auto p = packet::make_packet(pkt.ip.src, pkt.ip.dst,
                               static_cast<packet::IpProto>(pkt.ip.protocol),
                               util::Bytes(pkt.payload));
  return p;
}

/// A pair of similar payloads: processing `first` warms the cache so
/// `second` encodes against it.
struct SimilarPair {
  util::Bytes first;
  util::Bytes second;
};

SimilarPair similar_payloads(std::uint64_t seed) {
  util::Rng rng(seed);
  SimilarPair p;
  p.first = testutil::random_bytes(rng, 1000);
  p.second = p.first;  // fully redundant after the prefix
  for (int i = 0; i < 20; ++i) {
    p.second[i] = static_cast<std::uint8_t>(rng.next_u64());
  }
  return p;
}

TEST(CodecEpoch, EncoderEmitsV1WithoutResyncAndV2WithIt) {
  const SimilarPair pair = similar_payloads(1);
  for (const bool resync : {false, true}) {
    core::DreParams params;
    params.epoch_resync = resync;
    core::Encoder enc(params, core::make_policy(core::PolicyKind::kNaive,
                                                params));
    auto a = testutil::make_tcp_packet(pair.first, 1000);
    auto b = testutil::make_tcp_packet(pair.second, 3000);
    (void)enc.process(*a);
    const core::EncodeInfo info = enc.process(*b);
    ASSERT_TRUE(info.encoded);
    EXPECT_EQ(b->payload[0], resync ? core::kShimMagicV2 : core::kShimMagic);
    auto parsed = core::EncodedPayload::parse(b->payload);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->version, resync ? core::kWireVersion2 : 1);
  }
}

TEST(CodecEpoch, DecoderAdoptsVerifiedEpochAndDropsStalePackets) {
  const core::DreParams params = resync_params();
  core::Encoder enc(params, core::make_policy(core::PolicyKind::kNaive,
                                              params));
  core::Decoder dec(params);

  const SimilarPair pair = similar_payloads(2);
  auto a = testutil::make_tcp_packet(pair.first, 1000);
  auto b = testutil::make_tcp_packet(pair.second, 3000);
  (void)enc.process(*a);
  ASSERT_TRUE(enc.process(*b).encoded);
  auto stale = clone(*b);  // epoch-0 encoding, replayed later

  EXPECT_EQ(dec.process(*a).status, core::DecodeStatus::kPassthrough);
  EXPECT_EQ(dec.process(*b).status, core::DecodeStatus::kDecoded);
  EXPECT_EQ(dec.epoch(), 0);

  // The encoder flushes twice; its next encoding carries epoch 2.
  enc.flush();
  enc.flush();
  const SimilarPair pair2 = similar_payloads(3);
  auto c = testutil::make_tcp_packet(pair2.first, 5000);
  auto d = testutil::make_tcp_packet(pair2.second, 7000);
  (void)enc.process(*c);
  ASSERT_TRUE(enc.process(*d).encoded);
  EXPECT_EQ(dec.process(*c).status, core::DecodeStatus::kPassthrough);
  EXPECT_EQ(dec.process(*d).status, core::DecodeStatus::kDecoded);
  EXPECT_EQ(dec.epoch(), 2);
  EXPECT_EQ(dec.stats().epoch_adoptions, 1u);

  // The leftover epoch-0 encoding is now a stale packet.
  EXPECT_EQ(dec.process(*stale).status, core::DecodeStatus::kStaleEpoch);
  EXPECT_EQ(dec.stats().drops_stale_epoch, 1u);
  dec.audit();
}

TEST(CodecEpoch, StaleReferenceIsRejectedNotCrcGambled) {
  const core::DreParams params = resync_params();
  core::Encoder enc(params, core::make_policy(core::PolicyKind::kNaive,
                                              params));
  core::Decoder dec(params);

  // Cache a/b at epoch 0 on both sides, then advance the decoder's
  // ADOPTED epoch to 2 via a verified double-flush encoding.
  const SimilarPair pair = similar_payloads(4);
  auto a = testutil::make_tcp_packet(pair.first, 1000);
  auto b = testutil::make_tcp_packet(pair.second, 3000);
  (void)enc.process(*a);
  ASSERT_TRUE(enc.process(*b).encoded);
  EXPECT_EQ(dec.process(*a).status, core::DecodeStatus::kPassthrough);
  auto replay = clone(*b);  // epoch-0 encoding referencing a, for later
  EXPECT_EQ(dec.process(*b).status, core::DecodeStatus::kDecoded);
  enc.flush();
  enc.flush();
  const SimilarPair pair2 = similar_payloads(14);
  auto c = testutil::make_tcp_packet(pair2.first, 5000);
  auto d = testutil::make_tcp_packet(pair2.second, 7000);
  (void)enc.process(*c);
  ASSERT_TRUE(enc.process(*d).encoded);
  EXPECT_EQ(dec.process(*c).status, core::DecodeStatus::kPassthrough);
  EXPECT_EQ(dec.process(*d).status, core::DecodeStatus::kDecoded);
  ASSERT_EQ(dec.epoch(), 2);

  // A forged current-epoch encoding referencing the entry cached two
  // adopted flushes ago must be rejected even though the referenced bytes
  // are still in the decoder's cache and reconstruction would CRC-pass:
  // the encoder provably flushed that entry away, so using it is a
  // silent-corruption gamble.
  auto forged = core::EncodedPayload::parse(replay->payload);
  ASSERT_TRUE(forged.has_value());
  forged->epoch = 2;
  auto fpkt = packet::make_packet(replay->ip.src, replay->ip.dst,
                                  packet::IpProto::kDre, forged->serialize());
  const core::DecodeInfo info = dec.process(*fpkt);
  EXPECT_EQ(info.status, core::DecodeStatus::kStaleReference);
  EXPECT_NE(info.missing_fp, 0u);
  EXPECT_EQ(dec.stats().drops_stale_ref, 1u);
  dec.audit();
}

TEST(CodecEpoch, ImplausibleEpochJumpDeliversBytesButIsNotAdopted) {
  const core::DreParams params = resync_params();
  core::Encoder enc(params, core::make_policy(core::PolicyKind::kNaive,
                                              params));
  core::Decoder dec(params);

  const SimilarPair pair = similar_payloads(15);
  auto a = testutil::make_tcp_packet(pair.first, 1000);
  auto b = testutil::make_tcp_packet(pair.second, 3000);
  (void)enc.process(*a);
  ASSERT_TRUE(enc.process(*b).encoded);
  EXPECT_EQ(dec.process(*a).status, core::DecodeStatus::kPassthrough);
  auto replay = clone(*b);
  EXPECT_EQ(dec.process(*b).status, core::DecodeStatus::kDecoded);
  ASSERT_EQ(dec.epoch(), 0);

  // The payload CRC does not cover the shim, so a bit flip in the epoch
  // field survives verification.  Simulate one: a far-future epoch on an
  // otherwise-valid packet.  The bytes must still be delivered (they are
  // provably correct), but the garbage epoch must NOT be adopted — else
  // all legitimate epoch-0 traffic would be stale-dropped until the
  // encoder's epoch caught up, thousands of flushes later.
  auto forged = core::EncodedPayload::parse(replay->payload);
  ASSERT_TRUE(forged.has_value());
  forged->epoch = 0x4000;  // far beyond adopt_window
  auto fpkt = packet::make_packet(replay->ip.src, replay->ip.dst,
                                  packet::IpProto::kDre, forged->serialize());
  EXPECT_EQ(dec.process(*fpkt).status, core::DecodeStatus::kDecoded);
  EXPECT_EQ(dec.epoch(), 0);
  EXPECT_EQ(dec.stats().epoch_rejections, 1u);

  // Legitimate epoch-0 traffic keeps decoding: no poisoning.
  auto replay2 = clone(*replay);
  EXPECT_EQ(dec.process(*replay2).status, core::DecodeStatus::kDecoded);
  EXPECT_EQ(dec.stats().drops_stale_epoch, 0u);
  dec.audit();
}

TEST(CodecEpoch, ResyncSignalCarriesTheFailingEpochAndEncoderHonorsIt) {
  const core::DreParams params = resync_params();
  core::Encoder enc(params, core::make_policy(core::PolicyKind::kNaive,
                                              params));
  core::Decoder dec(params);

  const SimilarPair pair = similar_payloads(5);
  auto a = testutil::make_tcp_packet(pair.first, 1000);
  auto b = testutil::make_tcp_packet(pair.second, 3000);
  (void)enc.process(*a);  // "lost": never delivered to the decoder
  ASSERT_TRUE(enc.process(*b).encoded);

  // Replaying the undecodable encoding simulates TCP retransmitting into
  // a desynchronized cache.  After resync_after consecutive drops the
  // decoder asks for a resync naming the failing packet's epoch.
  core::DecodeInfo info;
  for (std::uint32_t i = 0; i < params.epoch_sync.resync_after; ++i) {
    auto copy = clone(*b);
    info = dec.process(*copy);
    EXPECT_EQ(info.status, core::DecodeStatus::kMissingFingerprint);
  }
  EXPECT_TRUE(info.resync);
  EXPECT_EQ(info.resync_epoch, 0);
  EXPECT_EQ(dec.stats().resync_signals, 1u);

  // A stale request (wrong epoch) is counted but not honored...
  enc.on_resync_request(42);
  EXPECT_EQ(enc.stats().flushes, 0u);
  // ...the decoder's real request is.
  enc.on_resync_request(info.resync_epoch);
  EXPECT_EQ(enc.epoch(), 1);
  EXPECT_EQ(enc.stats().flushes, 1u);
  EXPECT_EQ(enc.stats().resyncs_honored, 1u);
  EXPECT_EQ(enc.stats().resync_requests, 2u);
  enc.audit();

  // Post-flush traffic decodes again: the loop is broken.
  const SimilarPair pair2 = similar_payloads(6);
  auto c = testutil::make_tcp_packet(pair2.first, 5000);
  auto d = testutil::make_tcp_packet(pair2.second, 7000);
  (void)enc.process(*c);
  ASSERT_TRUE(enc.process(*d).encoded);
  EXPECT_EQ(dec.process(*c).status, core::DecodeStatus::kPassthrough);
  EXPECT_EQ(dec.process(*d).status, core::DecodeStatus::kDecoded);
  EXPECT_EQ(dec.epoch(), 1);
  dec.audit();
}

// ---------------------------------------------------------- cold restart --
//
// A restarted gateway starts with an empty cache at epoch 0 while its
// peer keeps the old cache and, on the decoder side, the old adopted
// epoch.  Epoch resync must bring the pair back in step: every packet
// delivered in the meantime is byte-identical, the drops stop within a
// bounded window, and compression resumes.

struct RestartOutcome {
  std::uint16_t epoch_before = 0;  // decoder's adopted epoch at the restart
  std::size_t drops = 0;
  std::size_t last_drop = 0;  // segment index of the last drop
  std::uint64_t resyncs = 0;  // requests the decoder sent
  std::size_t last_pass_in = 0;
  std::size_t last_pass_out = 0;
};

/// Four passes of a 200-segment File 1 object through a lossless naive
/// encoder -> decoder pair with epoch resync.  `flushes` counted encoder
/// flushes are spread over the first pass; at segment 200 the encoder
/// (or the decoder) is replaced by a fresh one.
RestartOutcome run_cold_restart(bool restart_encoder, int flushes) {
  constexpr std::size_t kSegments = 200;
  constexpr std::size_t kPasses = 4;
  core::DreParams params;
  params.epoch_resync = true;
  util::Rng rng(0xC01D);
  const util::Bytes object = workload::make_file1(rng, kSegments * 1460);
  auto fresh_encoder = [&] {
    return std::make_unique<core::Encoder>(
        params, core::make_policy(core::PolicyKind::kNaive, params));
  };
  auto enc = fresh_encoder();
  auto dec = std::make_unique<core::Decoder>(params);
  RestartOutcome out;
  std::size_t i = 0;
  for (std::size_t pass = 0; pass < kPasses; ++pass) {
    for (auto& pkt : testutil::segment_stream(object)) {
      if (i == kSegments) {
        out.epoch_before = dec->epoch();
        if (restart_encoder) {
          enc = fresh_encoder();
        } else {
          dec = std::make_unique<core::Decoder>(params);
        }
      }
      if (flushes > 0 && i < kSegments &&
          i % (kSegments / flushes) == kSegments / flushes / 2) {
        enc->flush_counted();
      }
      const util::Bytes original = pkt->payload;
      (void)enc->process(*pkt);
      if (pass + 1 == kPasses) {
        out.last_pass_in += original.size();
        out.last_pass_out += pkt->payload.size();
      }
      const core::DecodeInfo info = dec->process(*pkt);
      if (info.resync) {
        ++out.resyncs;
        enc->on_resync_request(info.resync_epoch);
      }
      if (core::is_drop(info.status)) {
        ++out.drops;
        out.last_drop = i;
      } else {
        EXPECT_EQ(pkt->payload, original) << "segment " << i;
      }
      ++i;
    }
  }
  enc->audit();
  dec->audit();
  return out;
}

void expect_recovered(const RestartOutcome& r) {
  // Before the restart the pair ran lossless, so every drop belongs to
  // the recovery, which must end within a few resync rounds ...
  if (r.drops > 0) {
    EXPECT_LT(r.last_drop, 200u + 32u);
  }
  // ... after which the last pass compresses like steady state.
  EXPECT_LT(r.last_pass_out * 2, r.last_pass_in);
}

TEST(ColdRestart, EncoderRestartAtAdoptedEpochZero) {
  const RestartOutcome r = run_cold_restart(/*restart_encoder=*/true, 0);
  EXPECT_EQ(r.epoch_before, 0);
  expect_recovered(r);
}

TEST(ColdRestart, EncoderRestartAfterFlushes) {
  // A cold encoder restarts at epoch 0, behind the decoder's adopted
  // epoch, so its encodings arrive as stale-epoch drops.
  for (const int flushes : {1, 5}) {
    SCOPED_TRACE(flushes);
    const RestartOutcome r = run_cold_restart(/*restart_encoder=*/true,
                                              flushes);
    EXPECT_EQ(r.epoch_before, flushes);
    EXPECT_GT(r.drops, 0u);
    expect_recovered(r);
  }
}

TEST(ColdRestart, DecoderRestartAtAdoptedEpochZero) {
  const RestartOutcome r = run_cold_restart(/*restart_encoder=*/false, 0);
  EXPECT_EQ(r.epoch_before, 0);
  EXPECT_GT(r.resyncs, 0u);
  expect_recovered(r);
}

TEST(ColdRestart, DecoderRestartAfterFlushes) {
  for (const int flushes : {1, 5}) {
    SCOPED_TRACE(flushes);
    const RestartOutcome r = run_cold_restart(/*restart_encoder=*/false,
                                              flushes);
    EXPECT_EQ(r.epoch_before, flushes);
    EXPECT_GT(r.resyncs, 0u);
    expect_recovered(r);
  }
}

// ------------------------------------------------------ gateway plumbing --

core::ControlMessage make_loss_report(std::uint32_t src, std::uint32_t dst) {
  core::ControlMessage m;
  m.type = core::ControlMessage::Type::kLossReport;
  m.host_key = core::host_key_of(src, dst);
  m.count = 1;
  return m;
}

/// A coded-repair gateway config: the one codec that keeps a loss table.
core::GatewayConfig coded_gateway_config() {
  core::GatewayConfig cfg;
  cfg.params = resync_params();
  cfg.params.coded_repair = true;
  cfg.policy = core::PolicyKind::kTcpSeq;
  return cfg;
}

TEST(GatewayResilience, EncoderGatewayDispatchesControlMessages) {
  const core::GatewayConfig cfg = coded_gateway_config();
  gateway::EncoderGateway gw(cfg);
  ASSERT_NE(gw.encoder()->loss_table(), nullptr);

  auto report = packet::make_packet(
      testutil::kDstIp, testutil::kSrcIp,
      static_cast<packet::IpProto>(core::kControlProto),
      make_loss_report(testutil::kSrcIp, testutil::kDstIp).serialize());
  gw.receive_control(*report);
  EXPECT_EQ(gw.stats().loss_reports, 1u);
  EXPECT_EQ(gw.encoder()->loss_table()->total_undecodable(), 1u);

  core::ControlMessage resync;
  resync.type = core::ControlMessage::Type::kResyncRequest;
  resync.epoch = 0;
  auto rpkt = packet::make_packet(
      testutil::kDstIp, testutil::kSrcIp,
      static_cast<packet::IpProto>(core::kControlProto), resync.serialize());
  gw.receive_control(*rpkt);
  EXPECT_EQ(gw.encoder()->stats().resyncs_honored, 1u);
  EXPECT_EQ(gw.encoder()->epoch(), 1);
}

TEST(GatewayResilience, ChannelDropsFeedTheEstimator) {
  gateway::EncoderGateway gw(coded_gateway_config());
  auto pkt = testutil::make_tcp_packet(util::Bytes(100, 'x'), 1000);
  gw.on_channel_drop(*pkt);
  gw.on_channel_drop(*pkt);
  EXPECT_EQ(gw.stats().channel_drops_seen, 2u);
  EXPECT_EQ(gw.encoder()->loss_table()->total_channel_drops(), 2u);
  const resilience::FlowLossState* path = gw.encoder()->loss_table()->flow(
      core::host_key_of(pkt->ip.src, pkt->ip.dst));
  ASSERT_NE(path, nullptr);
  EXPECT_EQ(path->window_failures, 2u);
  EXPECT_TRUE(path->lossy);
}

TEST(GatewayResilience, CodedGatewayFeedsItsLossTableWithoutTheController) {
  // Coded repair sizes its repairs from the table, so a coded codec
  // counts loss reports and channel drops whatever its policy.
  core::GatewayConfig cfg = coded_gateway_config();
  gateway::EncoderGateway gw(cfg);
  ASSERT_NE(gw.encoder()->loss_table(), nullptr);
  auto report = packet::make_packet(
      testutil::kDstIp, testutil::kSrcIp,
      static_cast<packet::IpProto>(core::kControlProto),
      make_loss_report(testutil::kSrcIp, testutil::kDstIp).serialize());
  gw.receive_control(*report);
  auto pkt = testutil::make_tcp_packet(util::Bytes(100, 'x'), 1000);
  gw.on_channel_drop(*pkt);
  const PerceivedLossEstimator& table = *gw.encoder()->loss_table();
  EXPECT_EQ(table.total_undecodable(), 1u);
  EXPECT_EQ(table.total_channel_drops(), 1u);
  EXPECT_EQ(table.flow(core::host_key_of(pkt->ip.src, pkt->ip.dst))
                ->window_failures,
            2u);

  // A plain TCP-seq codec keeps no table: the reports are counted by the
  // gateway and go no further.
  cfg.params.coded_repair = false;
  gateway::EncoderGateway plain(cfg);
  EXPECT_EQ(plain.encoder()->loss_table(), nullptr);
  plain.receive_control(*report);
  plain.on_channel_drop(*pkt);
  EXPECT_EQ(plain.stats().loss_reports, 1u);
  EXPECT_EQ(plain.stats().channel_drops_seen, 1u);
}

TEST(GatewayResilience, RetransmissionsMarkTheCodedPathLossy) {
  // TCP-seq acts on retransmissions; under coded repair each one is loss
  // evidence for its host pair, without counting as a failure sample.
  core::DreParams params;
  params.coded_repair = true;
  core::Encoder enc(params,
                    core::make_policy(core::PolicyKind::kTcpSeq, params));
  util::Rng rng(23);
  auto first = testutil::make_tcp_packet(testutil::random_bytes(rng, 800),
                                         5000);
  auto again = testutil::make_tcp_packet(testutil::random_bytes(rng, 800),
                                         5000);
  (void)enc.process(*first);
  EXPECT_TRUE(enc.process(*again).retransmission);
  const PerceivedLossEstimator& table = *enc.loss_table();
  EXPECT_EQ(table.total_retransmissions(), 1u);
  const resilience::FlowLossState* path =
      table.flow(core::host_key_of(testutil::kSrcIp, testutil::kDstIp));
  ASSERT_NE(path, nullptr);
  EXPECT_EQ(path->retransmissions, 1u);
  EXPECT_EQ(path->window_failures, 0u);
  EXPECT_LT(table.since_loss(*path), fec::kLossMemoryGenerations);
  enc.audit();
}

TEST(GatewayResilience, DecoderGatewayEmitsLossReportsAndResyncRequests) {
  core::DreParams params = resync_params();
  core::Encoder enc(params, core::make_policy(core::PolicyKind::kNaive,
                                              params));
  core::GatewayConfig cfg;
  cfg.params = params;
  gateway::DecoderGateway gw(cfg);
  std::vector<packet::PacketPtr> feedback;
  gw.set_feedback([&](packet::PacketPtr p) {
    feedback.push_back(std::move(p));
  });

  const SimilarPair pair = similar_payloads(9);
  auto a = testutil::make_tcp_packet(pair.first, 1000);
  auto b = testutil::make_tcp_packet(pair.second, 3000);
  (void)enc.process(*a);  // never delivered
  ASSERT_TRUE(enc.process(*b).encoded);

  for (std::uint32_t i = 0; i < params.epoch_sync.resync_after; ++i) {
    gw.receive(clone(*b));
  }
  EXPECT_EQ(gw.stats().dropped, params.epoch_sync.resync_after);
  EXPECT_EQ(gw.stats().loss_reports_sent, params.epoch_sync.resync_after);
  EXPECT_EQ(gw.stats().resyncs_sent, 1u);
  EXPECT_EQ(gw.stats().nacks_sent, 0u);  // nack_feedback is off

  // Every feedback packet is a parseable control message addressed back
  // to the encoder side (reverse of the data direction).
  std::size_t resyncs = 0;
  for (const auto& p : feedback) {
    EXPECT_EQ(p->ip.protocol, core::kControlProto);
    EXPECT_EQ(p->ip.src, testutil::kDstIp);
    EXPECT_EQ(p->ip.dst, testutil::kSrcIp);
    auto msg = core::ControlMessage::parse(p->payload);
    ASSERT_TRUE(msg.has_value());
    if (msg->type == core::ControlMessage::Type::kResyncRequest) ++resyncs;
  }
  EXPECT_EQ(resyncs, 1u);
}

TEST(GatewayResilience, LossReportsRouteToTheOwningShard) {
  core::GatewayConfig cfg = coded_gateway_config();
  cfg.shards = 4;
  cfg.threaded = false;
  gateway::ShardedEncoderGateway gw(cfg);

  const std::uint32_t src = 0x0A000001, dst = 0x0A000101;
  auto report = packet::make_packet(
      dst, src, static_cast<packet::IpProto>(core::kControlProto),
      make_loss_report(src, dst).serialize());
  const std::size_t owner = gateway::shard_index_of(
      gateway::shard_key_of(*report), cfg.shards);
  gw.submit_control(std::move(report));

  for (std::size_t i = 0; i < cfg.shards; ++i) {
    const PerceivedLossEstimator* table = gw.shard(i).encoder()->loss_table();
    ASSERT_NE(table, nullptr);
    EXPECT_EQ(table->total_undecodable(), i == owner ? 1u : 0u)
        << "shard " << i;
  }
  // The shard key is the host key: control feedback and the data path
  // agree on ownership by construction.
  EXPECT_EQ(gateway::shard_key_of(*packet::make_packet(
                src, dst, packet::IpProto::kTcp, util::Bytes{})),
            core::host_key_of(src, dst));
}

}  // namespace
}  // namespace bytecache
