// Tests of the encoding policies' admission semantics — the heart of the
// paper's Section V.
#include <gtest/gtest.h>

#include "core/decoder.h"
#include "core/encoder.h"
#include "core/flow.h"
#include "core/policies.h"
#include "tests/testutil.h"
#include "util/rng.h"
#include "util/seqcmp.h"

namespace bytecache::core {
namespace {

using testutil::test_encoder;
using testutil::make_tcp_packet;
using testutil::make_udp_packet;
using testutil::random_bytes;
using util::Bytes;
using util::Rng;

PacketContext ctx_with_seq(std::uint32_t seq, std::uint64_t index = 0) {
  PacketContext ctx;
  ctx.tcp_seq = seq;
  ctx.stream_index = index;
  ctx.payload_size = 1000;
  return ctx;
}

/// Feeds `ctx` to `policy` the way the encoder does: the segment is first
/// classified against the flow's record (one flow per test here), and
/// the policy reads the verdict from PacketContext::retransmission.
class Classified {
 public:
  explicit Classified(EncodingPolicy& policy) : policy_(policy) {}

  PolicyDecision before_encode(PacketContext ctx) {
    if (ctx.tcp_seq) ctx.retransmission = flow_.observe_seq(*ctx.tcp_seq);
    return policy_.before_encode(ctx);
  }

 private:
  EncodingPolicy& policy_;
  FlowState flow_;
};

cache::PacketMeta meta_with_seq(std::uint32_t seq,
                                std::uint64_t index = 0) {
  cache::PacketMeta m;
  m.tcp_seq = seq;
  m.has_tcp_seq = true;
  m.stream_index = index;
  return m;
}

// -------------------------------------------------------------- Naive --

TEST(NaivePolicy, AlwaysAllowsEverything) {
  NaivePolicy p;
  const auto d = p.before_encode(ctx_with_seq(100));
  EXPECT_TRUE(d.allow_encode);
  EXPECT_FALSE(d.flush_cache);
  EXPECT_TRUE(p.admit(ctx_with_seq(100), meta_with_seq(200)));  // succeeding!
  EXPECT_TRUE(p.admit(ctx_with_seq(100), meta_with_seq(100)));  // itself!
}

// --------------------------------------------------------- CacheFlush --

TEST(CacheFlushPolicy, FlushesOnSequenceDecrease) {
  CacheFlushPolicy policy;
  Classified p(policy);
  EXPECT_FALSE(p.before_encode(ctx_with_seq(1000)).flush_cache);
  EXPECT_FALSE(p.before_encode(ctx_with_seq(2460)).flush_cache);
  const auto d = p.before_encode(ctx_with_seq(1000));  // retransmission
  EXPECT_TRUE(d.flush_cache);
  EXPECT_TRUE(d.is_retransmission);
}

TEST(CacheFlushPolicy, FlushesOnEqualSequence) {
  // Back-to-back retransmissions of the same segment carry equal sequence
  // numbers; both must trigger the flush (see policies.h for why the
  // paper's strict-decrease trigger is insufficient).
  CacheFlushPolicy policy;
  Classified p(policy);
  p.before_encode(ctx_with_seq(1000));
  EXPECT_TRUE(p.before_encode(ctx_with_seq(1000)).flush_cache);
  EXPECT_TRUE(p.before_encode(ctx_with_seq(1000)).flush_cache);
}

TEST(CacheFlushPolicy, NoFlushOnMonotonicStream) {
  CacheFlushPolicy policy;
  Classified p(policy);
  for (std::uint32_t seq = 1000; util::seq_lt(seq, 100000); seq += 1460) {
    EXPECT_FALSE(p.before_encode(ctx_with_seq(seq)).flush_cache);
  }
}

TEST(CacheFlushPolicy, SequenceWraparoundIsNotARetransmission) {
  CacheFlushPolicy policy;
  Classified p(policy);
  p.before_encode(ctx_with_seq(0xFFFFFF00u));
  // Crossing the 2^32 wrap is *forward* progress.
  EXPECT_FALSE(p.before_encode(ctx_with_seq(0x00000100u)).flush_cache);
}

TEST(CacheFlushPolicy, NonTcpPacketsIgnored) {
  CacheFlushPolicy policy;
  Classified p(policy);
  PacketContext udp;
  udp.payload_size = 500;
  EXPECT_FALSE(p.before_encode(udp).flush_cache);
  p.before_encode(ctx_with_seq(5000));
  EXPECT_FALSE(p.before_encode(udp).flush_cache);  // no seq, no verdict
}

TEST(CacheFlushPolicy, EndToEndRetransmissionGoesUnencoded) {
  DreParams params;
  auto enc = test_encoder(PolicyKind::kCacheFlush, params);
  Rng rng(1);
  const Bytes data = random_bytes(rng, 1000);

  auto p1 = make_tcp_packet(data, 1000);
  enc.process(*p1);
  // Retransmission of the same segment: would be encoded by naive, must
  // go out unencoded here.
  auto p2 = make_tcp_packet(data, 1000);
  const EncodeInfo info = enc.process(*p2);
  EXPECT_TRUE(info.flushed);
  EXPECT_FALSE(info.encoded);
  EXPECT_EQ(enc.stats().flushes, 1u);
}

TEST(CacheFlushPolicy, FlowRecordSurvivesAPolicySwitch) {
  // The retransmission classification belongs to the encoder, not to the
  // policy: a policy switched in mid-flow sees the flow's real previous
  // segment, so its first retransmission is caught.
  DreParams params;
  auto enc = test_encoder(PolicyKind::kTcpSeq, params);
  Rng rng(3);
  auto p1 = make_tcp_packet(random_bytes(rng, 1000), 1000);
  auto p2 = make_tcp_packet(random_bytes(rng, 1000), 2000);
  enc.process(*p1);
  enc.process(*p2);
  enc.set_policy(make_policy(PolicyKind::kCacheFlush, params));
  auto retx = make_tcp_packet(random_bytes(rng, 1000), 1000);
  const EncodeInfo info = enc.process(*retx);
  EXPECT_TRUE(info.retransmission);
  EXPECT_TRUE(info.flushed);
}

// ------------------------------------------------------------- TcpSeq --

TEST(TcpSeqPolicy, AdmitsOnlyStrictlyPrecedingSegments) {
  TcpSeqPolicy p;
  EXPECT_TRUE(p.admit(ctx_with_seq(5000), meta_with_seq(1000)));
  EXPECT_FALSE(p.admit(ctx_with_seq(5000), meta_with_seq(5000)));  // itself
  EXPECT_FALSE(p.admit(ctx_with_seq(5000), meta_with_seq(9000)));  // later
}

TEST(TcpSeqPolicy, WrapAwareComparison) {
  TcpSeqPolicy p;
  // 0xFFFFFF00 precedes 0x100 across the wrap.
  EXPECT_TRUE(p.admit(ctx_with_seq(0x100), meta_with_seq(0xFFFFFF00u)));
  EXPECT_FALSE(p.admit(ctx_with_seq(0xFFFFFF00u), meta_with_seq(0x100)));
}

TEST(TcpSeqPolicy, RejectsWithoutTcpState) {
  TcpSeqPolicy p;
  PacketContext udp;
  udp.payload_size = 500;
  EXPECT_FALSE(p.admit(udp, meta_with_seq(1)));
  cache::PacketMeta no_seq;
  EXPECT_FALSE(p.admit(ctx_with_seq(5000), no_seq));
}

TEST(TcpSeqPolicy, NeverFlushes) {
  TcpSeqPolicy policy;
  Classified p(policy);
  p.before_encode(ctx_with_seq(2000));
  const auto d = p.before_encode(ctx_with_seq(1000));
  EXPECT_FALSE(d.flush_cache);
  EXPECT_TRUE(d.is_retransmission);  // detected, but only for stats
  EXPECT_TRUE(d.allow_encode);
}

TEST(TcpSeqPolicy, EndToEndRetransmissionEncodedAgainstPredecessorOnly) {
  DreParams params;
  auto enc = test_encoder(PolicyKind::kTcpSeq, params);
  Decoder dec(params);
  Rng rng(2);
  const Bytes a = random_bytes(rng, 1000);
  const Bytes b = random_bytes(rng, 1000);

  auto p1 = make_tcp_packet(a, 1000);  // seq 1000
  enc.process(*p1);
  dec.process(*p1);
  auto p2 = make_tcp_packet(b, 2000);  // seq 2000
  enc.process(*p2);
  dec.process(*p2);

  // Retransmission of seq 1000 whose content matches ITSELF (cached with
  // equal seq): must NOT be encoded.
  auto p3 = make_tcp_packet(a, 1000);
  EXPECT_FALSE(enc.process(*p3).encoded);

  // A later segment repeating earlier content IS encoded.
  auto p4 = make_tcp_packet(a, 3000);
  const Bytes original = p4->payload;
  EXPECT_TRUE(enc.process(*p4).encoded);
  dec.process(*p3);
  EXPECT_EQ(dec.process(*p4).status, DecodeStatus::kDecoded);
  EXPECT_EQ(p4->payload, original);
}

// ---------------------------------------------------------- KDistance --

TEST(KDistancePolicy, EveryKthPacketIsReference) {
  KDistancePolicy p(4);
  int references = 0;
  for (std::uint64_t i = 0; i < 12; ++i) {
    const auto d = p.before_encode(ctx_with_seq(1000 + 100 * i, i));
    if (d.is_reference) {
      EXPECT_FALSE(d.allow_encode);
      ++references;
      EXPECT_EQ(i % 4, 0u) << i;
    }
  }
  EXPECT_EQ(references, 3);
}

TEST(KDistancePolicy, AdmitsOnlySinceLatestReference) {
  KDistancePolicy p(4);
  for (std::uint64_t i = 0; i <= 4; ++i) {
    p.before_encode(ctx_with_seq(1000, i));  // index 4 becomes a reference
  }
  cache::PacketMeta before_ref;
  before_ref.stream_index = 2;
  cache::PacketMeta the_ref;
  the_ref.stream_index = 4;
  cache::PacketMeta after_ref;
  after_ref.stream_index = 5;
  const auto ctx = ctx_with_seq(9999, 6);
  EXPECT_FALSE(p.admit(ctx, before_ref));
  EXPECT_TRUE(p.admit(ctx, the_ref));
  EXPECT_TRUE(p.admit(ctx, after_ref));
}

TEST(KDistancePolicy, KOneMeansNoEncoding) {
  KDistancePolicy p(1);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(p.before_encode(ctx_with_seq(0, i)).is_reference);
  }
}

TEST(KDistancePolicy, WorksWithoutTcp) {
  KDistancePolicy p(3);
  PacketContext udp;
  udp.payload_size = 500;
  udp.stream_index = 0;
  EXPECT_TRUE(p.before_encode(udp).is_reference);
  udp.stream_index = 1;
  EXPECT_TRUE(p.before_encode(udp).allow_encode);
}

TEST(KDistancePolicy, EndToEndCascadeBoundedByK) {
  // After any single loss, at most k-1 packets can be undecodable before
  // the next reference resynchronizes the caches.
  DreParams params;
  params.k_distance = 5;
  auto enc = test_encoder(PolicyKind::kKDistance, params);
  Decoder dec(params);
  Rng rng(3);
  // Highly redundant stream: every packet shares content with recent ones.
  const Bytes base = random_bytes(rng, 1460);
  std::vector<packet::PacketPtr> packets;
  for (int i = 0; i < 40; ++i) {
    Bytes payload = base;  // identical content: maximal dependency pressure
    payload[0] = static_cast<std::uint8_t>(i);  // small twist
    packets.push_back(make_tcp_packet(payload, 1000 + 1460 * i));
  }
  int undecodable = 0, max_run = 0, run = 0;
  for (std::size_t i = 0; i < packets.size(); ++i) {
    enc.process(*packets[i]);
    if (i == 7) {  // drop one packet on the "link"
      run = 0;
      continue;
    }
    const DecodeInfo dinfo = dec.process(*packets[i]);
    if (is_drop(dinfo.status)) {
      ++undecodable;
      ++run;
      max_run = std::max(max_run, run);
    } else {
      run = 0;
    }
  }
  EXPECT_LE(undecodable, 4);  // k - 1
  EXPECT_LE(max_run, 4);
}

}  // namespace
}  // namespace bytecache::core
