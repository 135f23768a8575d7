// Deterministic fuzz battery for everything that parses wire bytes
// (ISSUE 4 satellite): the shim parser (v1 and v2), the decoder fed
// mutated encodings against a warmed cache, the control-message parser,
// and the encoder gateway's control ingestion.  A seeded mutator applies
// truncation, extension, bit flips, and splices of two valid messages;
// each target must never crash, over-read, or (for the decoder) deliver
// a packet that fails the deep audit.  Runs >= 10k mutated inputs per
// target; ASan/UBSan cover the whole suite via the `sanitize` ctest
// label.  The seed is logged and overridable with BYTECACHE_TEST_SEED.
#include <gtest/gtest.h>

#include "core/control.h"
#include "core/decoder.h"
#include "core/encoder.h"
#include "core/factory.h"
#include "core/flow.h"
#include "core/wire.h"
#include "fec/decoder.h"
#include "fec/wire.h"
#include "gateway/gateways.h"
#include "tests/testutil.h"
#include "util/rng.h"

namespace bytecache {
namespace {

constexpr int kIterations = 12000;

/// Applies one random mutation drawn from {truncate, extend, bit-flip,
/// byte-rewrite, splice-with-donor} to `wire`.
util::Bytes mutate(util::Rng& rng, util::BytesView wire,
                   util::BytesView donor) {
  util::Bytes out(wire.begin(), wire.end());
  switch (rng.uniform(0, 4)) {
    case 0:  // truncate
      out.resize(out.empty() ? 0 : rng.uniform(0, out.size() - 1));
      break;
    case 1: {  // extend with random bytes
      const std::size_t extra = rng.uniform(1, 32);
      for (std::size_t i = 0; i < extra; ++i) {
        out.push_back(static_cast<std::uint8_t>(rng.next_u64()));
      }
      break;
    }
    case 2: {  // flip 1..8 random bits
      if (out.empty()) break;
      const int flips = static_cast<int>(rng.uniform(1, 8));
      for (int i = 0; i < flips; ++i) {
        const std::size_t pos = rng.uniform(0, out.size() - 1);
        out[pos] ^= static_cast<std::uint8_t>(1u << rng.uniform(0, 7));
      }
      break;
    }
    case 3: {  // rewrite a random byte (targets header fields often)
      if (out.empty()) break;
      const std::size_t pos = rng.uniform(0, out.size() - 1);
      out[pos] = static_cast<std::uint8_t>(rng.next_u64());
      break;
    }
    case 4: {  // splice: head of one valid message, tail of another
      if (out.empty() || donor.empty()) break;
      const std::size_t cut = rng.uniform(0, out.size() - 1);
      const std::size_t dcut = rng.uniform(0, donor.size() - 1);
      out.resize(cut);
      out.insert(out.end(), donor.begin() + dcut, donor.end());
      break;
    }
  }
  return out;
}

/// A valid encoded wire image plus the passthrough payloads that warm a
/// decoder cache enough to decode it.
struct EncodedCorpus {
  std::vector<util::Bytes> warmup;  // passthrough payloads, in order
  std::vector<util::Bytes> wires;   // valid encoded payloads
};

EncodedCorpus build_corpus(std::uint64_t seed, bool epoch_resync) {
  core::DreParams params;
  params.epoch_resync = epoch_resync;
  core::Encoder enc(params, core::make_policy(core::PolicyKind::kNaive,
                                              params));
  util::Rng rng(seed);
  EncodedCorpus corpus;
  util::Bytes base = testutil::random_bytes(rng, 1200);
  for (int round = 0; round < 4; ++round) {
    // First occurrence passes through (and is cached); a partial rewrite
    // of it then encodes against the cache.
    auto a = testutil::make_tcp_packet(
        base, 1000 + static_cast<std::uint32_t>(round) * 4000);
    (void)enc.process(*a);
    corpus.warmup.push_back(a->payload);
    util::Bytes variant = base;
    for (int i = 0; i < 30; ++i) {
      variant[rng.uniform(0, variant.size() - 1)] =
          static_cast<std::uint8_t>(rng.next_u64());
    }
    auto b = testutil::make_tcp_packet(
        variant, 3000 + static_cast<std::uint32_t>(round) * 4000);
    if (enc.process(*b).encoded) corpus.wires.push_back(b->payload);
    base = variant;
  }
  return corpus;
}

TEST(FuzzWire, ShimParserNeverCrashesOnMutatedInput) {
  util::Rng rng(testutil::test_seed(0xF0221));
  const EncodedCorpus v1 = build_corpus(11, /*epoch_resync=*/false);
  const EncodedCorpus v2 = build_corpus(12, /*epoch_resync=*/true);
  ASSERT_FALSE(v1.wires.empty());
  ASSERT_FALSE(v2.wires.empty());
  std::size_t accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    const auto& pool = (i % 2 == 0) ? v1.wires : v2.wires;
    const auto& donor_pool = (i % 2 == 0) ? v2.wires : v1.wires;
    const util::Bytes in =
        mutate(rng, pool[rng.uniform(0, pool.size() - 1)],
               donor_pool[rng.uniform(0, donor_pool.size() - 1)]);
    auto parsed = core::EncodedPayload::parse(in);
    if (!parsed) continue;
    ++accepted;
    // Whatever is accepted must satisfy the structural invariants the
    // decoder relies on: regions ordered, disjoint, inside orig_len, and
    // the literal count exact.
    std::size_t covered = 0, pos = 0;
    for (const auto& r : parsed->regions) {
      EXPECT_GE(static_cast<std::size_t>(r.offset_new), pos);
      pos = static_cast<std::size_t>(r.offset_new) + r.length;
      covered += r.length;
      EXPECT_LE(pos, parsed->orig_len);
    }
    EXPECT_EQ(covered + parsed->literals.size(), parsed->orig_len);
    // Re-serializing an accepted parse must be stable (no lossy fields).
    auto reparsed = core::EncodedPayload::parse(parsed->serialize());
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(reparsed->crc, parsed->crc);
    EXPECT_EQ(reparsed->epoch, parsed->epoch);
    EXPECT_EQ(reparsed->regions.size(), parsed->regions.size());
  }
  // The bit-flip/rewrite arms leave most images structurally valid often
  // enough that acceptance is exercised, not just rejection.
  EXPECT_GT(accepted, 100u);
}

TEST(FuzzWire, DecoderSurvivesMutatedEncodingsAndStaysAuditClean) {
  const std::uint64_t seed = testutil::test_seed(0xF0222);
  util::Rng rng(seed);
  for (const bool epoch_resync : {false, true}) {
    const EncodedCorpus corpus = build_corpus(21, epoch_resync);
    ASSERT_FALSE(corpus.wires.empty());
    core::DreParams params;
    params.epoch_resync = epoch_resync;
    core::Decoder dec(params);
    for (const util::Bytes& w : corpus.warmup) {
      auto p = packet::make_packet(testutil::kSrcIp, testutil::kDstIp,
                                   packet::IpProto::kTcp, util::Bytes(w));
      (void)dec.process(*p);
    }
    std::uint64_t decoded = 0;
    for (int i = 0; i < kIterations; ++i) {
      const util::Bytes in = mutate(
          rng, corpus.wires[rng.uniform(0, corpus.wires.size() - 1)],
          corpus.wires[rng.uniform(0, corpus.wires.size() - 1)]);
      auto p = packet::make_packet(testutil::kSrcIp, testutil::kDstIp,
                                   packet::IpProto::kDre, util::Bytes(in));
      const core::DecodeInfo info = dec.process(*p);
      if (!core::is_drop(info.status)) ++decoded;
      if (i % 1024 == 0) dec.audit();
    }
    dec.audit();
    // The CRC must catch essentially everything harmful; some mutants
    // (e.g. flips confined to literals the CRC covers) decode to their
    // mutated-but-consistent original, which is fine — what matters is
    // that nothing crashed and the audit held throughout.
    EXPECT_EQ(dec.stats().packets,
              corpus.warmup.size() + static_cast<std::uint64_t>(kIterations));
    (void)decoded;
  }
}

TEST(FuzzWire, ControlParserNeverCrashesOnMutatedInput) {
  util::Rng rng(testutil::test_seed(0xF0223));
  std::vector<util::Bytes> corpus;
  {
    core::ControlMessage nack;
    nack.fingerprints = {0x1122334455667788ull, 0xAABBCCDDEEFF0011ull};
    corpus.push_back(nack.serialize());
    core::ControlMessage resync;
    resync.type = core::ControlMessage::Type::kResyncRequest;
    resync.epoch = 7;
    corpus.push_back(resync.serialize());
    core::ControlMessage report;
    report.type = core::ControlMessage::Type::kLossReport;
    report.host_key = 0x123456789ABCDEF0ull;
    report.count = 3;
    corpus.push_back(report.serialize());
  }
  std::size_t accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    const util::Bytes in =
        mutate(rng, corpus[rng.uniform(0, corpus.size() - 1)],
               corpus[rng.uniform(0, corpus.size() - 1)]);
    auto msg = core::ControlMessage::parse(in);
    if (!msg) continue;
    ++accepted;
    // Round-trip stability of accepted messages.
    auto again = core::ControlMessage::parse(msg->serialize());
    ASSERT_TRUE(again.has_value());
    EXPECT_EQ(again->type, msg->type);
  }
  EXPECT_GT(accepted, 100u);
}

TEST(FuzzWire, EncoderGatewaySurvivesMutatedControlTraffic) {
  util::Rng rng(testutil::test_seed(0xF0224));
  core::DreParams params;
  params.epoch_resync = true;
  params.coded_repair = true;  // keeps the loss table loss reports feed
  core::GatewayConfig gw_cfg;
  gw_cfg.params = params;
  gw_cfg.policy = core::PolicyKind::kTcpSeq;
  gateway::EncoderGateway gw(gw_cfg);
  std::vector<util::Bytes> corpus;
  {
    core::ControlMessage nack;
    nack.fingerprints = {0x1122334455667788ull};
    corpus.push_back(nack.serialize());
    core::ControlMessage resync;
    resync.type = core::ControlMessage::Type::kResyncRequest;
    corpus.push_back(resync.serialize());
    core::ControlMessage report;
    report.type = core::ControlMessage::Type::kLossReport;
    report.host_key = core::host_key_of(testutil::kSrcIp, testutil::kDstIp);
    report.count = 1;
    corpus.push_back(report.serialize());
  }
  for (int i = 0; i < kIterations; ++i) {
    const util::Bytes in =
        mutate(rng, corpus[rng.uniform(0, corpus.size() - 1)],
               corpus[rng.uniform(0, corpus.size() - 1)]);
    auto p = packet::make_packet(
        testutil::kDstIp, testutil::kSrcIp,
        static_cast<packet::IpProto>(core::kControlProto), util::Bytes(in));
    gw.receive_control(*p);
    if (i % 2048 == 0 && gw.encoder() != nullptr) gw.encoder()->audit();
  }
  ASSERT_NE(gw.encoder(), nullptr);
  gw.encoder()->audit();
  // Mutated resync requests at epoch != current must not have caused a
  // flush storm: honored resyncs are bounded by requests that named the
  // then-current epoch, each of which bumps the epoch away from itself.
  EXPECT_LE(gw.encoder()->stats().resyncs_honored, 0xFFFFull);
}

// ---- Coded-repair wire surface (ISSUE 9, DESIGN.md §13) ---------------

/// Valid v3 data payloads and repair payloads from an encoder running
/// with the coded-repair layer on.
struct CodedCorpus {
  std::vector<util::Bytes> wires;    // v3-shimmed data payloads
  std::vector<util::Bytes> repairs;  // 0xD7 repair payloads
};

CodedCorpus build_coded_corpus(std::uint64_t seed) {
  core::DreParams params;
  params.epoch_resync = true;
  params.coded_repair = true;
  params.repair.generation_packets = 4;  // close often: plenty of repairs
  core::Encoder enc(params,
                    core::make_policy(core::PolicyKind::kNaive, params));
  util::Rng rng(seed);
  CodedCorpus corpus;
  util::Bytes base = testutil::random_bytes(rng, 1200);
  for (int round = 0; round < 12; ++round) {
    auto p = testutil::make_tcp_packet(
        base, 1000 + static_cast<std::uint32_t>(round) * 4000);
    const core::EncodeInfo info = enc.process(*p);
    corpus.wires.push_back(p->payload);
    for (const util::Bytes& r : info.repairs) corpus.repairs.push_back(r);
    for (int i = 0; i < 30; ++i) {
      base[rng.uniform(0, base.size() - 1)] =
          static_cast<std::uint8_t>(rng.next_u64());
    }
  }
  return corpus;
}

TEST(FuzzWire, RepairParserNeverCrashesOnMutatedInput) {
  util::Rng rng(testutil::test_seed(0xF0225));
  const CodedCorpus corpus = build_coded_corpus(31);
  ASSERT_GE(corpus.repairs.size(), 4u);
  std::size_t accepted = 0;
  fec::RepairPacket parsed;
  util::Bytes wire;
  for (int i = 0; i < kIterations; ++i) {
    // The coefficient+symbol CRC rejects almost every mutant (unlike the
    // shim parser, whose CRC is checked downstream), so every 8th input
    // goes in unmutated to keep the acceptance path genuinely exercised.
    const util::Bytes& pick =
        corpus.repairs[rng.uniform(0, corpus.repairs.size() - 1)];
    const util::Bytes in =
        (i % 8 == 0) ? pick
                     : mutate(rng, pick,
                              corpus.repairs[rng.uniform(
                                  0, corpus.repairs.size() - 1)]);
    if (!fec::RepairPacket::parse_repair_into(in, parsed)) continue;
    ++accepted;
    // Accepted parses satisfy the bounds the decoder indexes by, and
    // re-serialize byte-stably (the CRC pins coefficients + symbol).
    ASSERT_LE(parsed.gen_size, fec::kMaxGenerationPackets);
    ASSERT_LE(parsed.repair_index, fec::kMaxRepairPackets - 1);
    ASSERT_EQ(parsed.coeffs.size(), parsed.gen_size);
    ASSERT_EQ(parsed.symbol.size(), parsed.symbol_len);
    parsed.serialize_into(wire);
    fec::RepairPacket again;
    ASSERT_TRUE(fec::RepairPacket::parse_repair_into(wire, again));
    EXPECT_EQ(again.gen_id, parsed.gen_id);
    EXPECT_EQ(again.repair_index, parsed.repair_index);
    EXPECT_EQ(again.crc, parsed.crc);
    EXPECT_EQ(again.coeffs, parsed.coeffs);
    EXPECT_EQ(again.symbol, parsed.symbol);
  }
  // The CRC rejects most mutants; un-mutated splices and benign flips
  // keep the acceptance path exercised too.
  EXPECT_GT(accepted, 100u);
}

TEST(FuzzWire, GenerationHeaderAndRepairDecoderSurviveMutation) {
  const std::uint64_t seed = testutil::test_seed(0xF0226);
  util::Rng rng(seed);
  const CodedCorpus corpus = build_coded_corpus(32);
  ASSERT_FALSE(corpus.wires.empty());
  ASSERT_FALSE(corpus.repairs.empty());
  fec::RepairConfig cfg;
  cfg.generation_packets = 4;
  fec::RepairDecoder dec(cfg);
  std::vector<fec::RepairDecoder::Released> released;
  std::uint64_t v3_parses = 0;
  for (int i = 0; i < kIterations; ++i) {
    // Mix data and repair mutants, splicing across the two pools so
    // repair headers land on data shims and vice versa — exactly what a
    // corrupted classifier byte produces.
    const bool data = (i % 3) != 0;
    const auto& pool = data ? corpus.wires : corpus.repairs;
    const auto& donor = data ? corpus.repairs : corpus.wires;
    const util::Bytes in =
        mutate(rng, pool[rng.uniform(0, pool.size() - 1)],
               donor[rng.uniform(0, donor.size() - 1)]);
    // The decoder gateway's classification order, verbatim.
    if (fec::is_repair_payload(in)) {
      dec.on_repair(in, released);
    } else {
      std::uint16_t gen_id = 0;
      std::uint8_t gen_seq = 0;
      if (core::peek_gen_tag(in, gen_id, gen_seq)) {
        auto p = packet::make_packet(testutil::kSrcIp, testutil::kDstIp,
                                     packet::IpProto::kDre, util::Bytes(in));
        dec.on_data(gen_id, gen_seq, std::move(p), released);
      }
    }
    // Whatever a mutated v3 shim parses into must stay inside the tag
    // bounds the full parser enforces.
    core::EncodedPayload payload;
    if (core::EncodedPayload::parse_into(in, payload) &&
        payload.version >= core::kWireVersion3) {
      ++v3_parses;
    }
    released.clear();
    if (i % 1024 == 0) dec.audit();
    if (i % 4096 == 0) dec.drain(released), released.clear();
  }
  dec.drain(released);
  dec.audit();
  // Parse acceptance (CRC-gated) and the decoder's malformed/tag-reject
  // counters must all have been exercised.
  EXPECT_GT(v3_parses, 100u);
  EXPECT_GT(dec.stats().data_packets + dec.stats().repair_packets, 100u);
  EXPECT_GT(dec.stats().repairs_malformed, 0u);
}

}  // namespace
}  // namespace bytecache
