// Sharded multi-worker gateways (gateway/sharded_gateways.h): shard-key
// stability, bit-identity of the N=1 configuration with the plain
// gateways, end-to-end correctness across many flows under real encoder
// worker threads, with the decoder shards run on the driver thread or
// inline on those workers (the ThreadSanitizer stress for
// `ctest -L sanitize`), control feedback routing, and bounded-cache churn.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "gateway/gateways.h"
#include "gateway/sharded_gateways.h"
#include "packet/tcp.h"
#include "tests/testutil.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace bytecache::gateway {
namespace {

using util::Bytes;

/// GatewayConfig shorthand for these tests (the single construction
/// surface; see core/factory.h).
core::GatewayConfig make_cfg(core::PolicyKind kind,
                             const core::DreParams& params,
                             std::size_t shards = 1, bool threaded = true,
                             std::size_t ring_capacity = 1024) {
  core::GatewayConfig cfg;
  cfg.params = params;
  cfg.policy = kind;
  cfg.shards = shards;
  cfg.threaded = threaded;
  cfg.ring_capacity = ring_capacity;
  return cfg;
}

/// A TCP data packet between an arbitrary host pair (testutil's helper
/// pins the addresses; the sharding tests need many distinct pairs).
packet::PacketPtr flow_packet(std::uint32_t src, std::uint32_t dst,
                              util::BytesView data, std::uint32_t seq) {
  packet::TcpHeader h;
  h.src_port = 80;
  h.dst_port = 40000;
  h.seq = seq;
  h.flags = packet::TcpHeader::kAck | packet::TcpHeader::kPsh;
  Bytes segment;
  segment.reserve(packet::TcpHeader::kSize + data.size());
  h.serialize(segment, data, src, dst);
  return packet::make_packet(src, dst, packet::IpProto::kTcp,
                             std::move(segment));
}

/// Segments `object` into MSS-sized packets for one host pair.
std::vector<packet::PacketPtr> flow_stream(std::uint32_t src,
                                           std::uint32_t dst,
                                           util::BytesView object) {
  constexpr std::size_t kMss = 1460;
  std::vector<packet::PacketPtr> out;
  for (std::size_t off = 0; off < object.size(); off += kMss) {
    const std::size_t len = std::min(kMss, object.size() - off);
    out.push_back(flow_packet(src, dst, object.subspan(off, len),
                              1000 + static_cast<std::uint32_t>(off)));
  }
  return out;
}

/// Decodes `p` on the shard its host pair maps to — the same routing the
/// encoder applies, so the decoder shard sees its encoder twin's output.
void decode_routed(ShardedDecoderGateway& dec, packet::PacketPtr p) {
  const std::size_t i = shard_index_of(shard_key_of(*p), dec.shard_count());
  dec.submit_to_shard(i, std::move(p));
}

std::uint64_t pair_id(const packet::Packet& p) {
  return (static_cast<std::uint64_t>(std::min(p.ip.src, p.ip.dst)) << 32) |
         std::max(p.ip.src, p.ip.dst);
}

// ----------------------------------------------------------- shard key --

TEST(ShardKey, SymmetricStableAndNonZero) {
  auto fwd = flow_packet(0x0A000001, 0x0A000101, Bytes(32, 'x'), 1);
  auto rev = flow_packet(0x0A000101, 0x0A000001, Bytes(16, 'y'), 9);
  const std::uint64_t key = shard_key_of(*fwd);
  EXPECT_NE(key, 0u);
  // Reverse direction (ACKs, NACK control) hashes to the same shard.
  EXPECT_EQ(shard_key_of(*rev), key);
  // Encoding rewrites protocol and payload but never the addresses; the
  // key must survive it so the decoder routes to the encoding cache.
  fwd->ip.protocol = static_cast<std::uint8_t>(packet::IpProto::kDre);
  fwd->payload.assign(4, 0);
  EXPECT_EQ(shard_key_of(*fwd), key);

  auto other = flow_packet(0x0A000002, 0x0A000101, Bytes(32, 'x'), 1);
  EXPECT_NE(shard_key_of(*other), key);

  for (std::size_t shards : {1u, 2u, 4u, 7u, 8u}) {
    EXPECT_LT(shard_index_of(key, shards), shards);
  }
}

TEST(ShardKey, SpreadsHostPairsAcrossShards) {
  // splitmix64 over 64 host pairs should leave no shard empty at N=4.
  std::vector<int> counts(4, 0);
  for (std::uint32_t i = 0; i < 64; ++i) {
    auto pkt = flow_packet(0x0A000000 + i, 0x0A010000 + i, Bytes(8, 'z'), 1);
    ++counts[shard_index_of(shard_key_of(*pkt), counts.size())];
  }
  for (std::size_t s = 0; s < counts.size(); ++s) {
    EXPECT_GT(counts[s], 0) << "shard " << s << " got no flows";
  }
}

// ------------------------------------------------------ N=1 bit-identity --

void expect_encoder_stats_equal(const core::EncoderStats& a,
                                const core::EncoderStats& b) {
  EXPECT_EQ(a.packets, b.packets);
  EXPECT_EQ(a.encoded_packets, b.encoded_packets);
  EXPECT_EQ(a.references, b.references);
  EXPECT_EQ(a.regions, b.regions);
  EXPECT_EQ(a.bytes_in, b.bytes_in);
  EXPECT_EQ(a.bytes_out, b.bytes_out);
  EXPECT_EQ(a.dependency_links, b.dependency_links);
}

TEST(ShardedEncoderGateway, SingleShardBitIdenticalToPlainGateway) {
  core::DreParams params;
  util::Rng rng(21);
  const Bytes object = workload::make_file1(rng, 120 * 1460);
  const auto packets = testutil::segment_stream(object);

  std::vector<Bytes> plain_wire;
  EncoderGateway plain(make_cfg(core::PolicyKind::kNaive, params));
  plain.set_sink([&](packet::PacketPtr p) {
    plain_wire.push_back(packet::to_wire(*p));
  });
  for (const auto& pkt : packets) plain.receive(packet::clone_packet(*pkt));

  for (bool threaded : {false, true}) {
    ShardedEncoderGateway sharded(
        make_cfg(core::PolicyKind::kNaive, params, /*shards=*/1, threaded));
    std::vector<Bytes> sharded_wire;
    sharded.set_sink([&](packet::PacketPtr p) {
      sharded_wire.push_back(packet::to_wire(*p));
    });
    for (const auto& pkt : packets) sharded.submit(packet::clone_packet(*pkt));
    sharded.drain_until_idle();

    ASSERT_EQ(sharded_wire.size(), plain_wire.size());
    for (std::size_t i = 0; i < plain_wire.size(); ++i) {
      ASSERT_EQ(sharded_wire[i], plain_wire[i])
          << "wire divergence at packet " << i << " threaded=" << threaded;
    }
    EXPECT_EQ(sharded.stats().packets, plain.stats().packets);
    EXPECT_EQ(sharded.stats().wire_bytes_out, plain.stats().wire_bytes_out);
    expect_encoder_stats_equal(sharded.encoder_stats(),
                               plain.encoder()->stats());
    sharded.audit();
  }
}

TEST(ShardedDecoderGateway, SingleShardBitIdenticalToPlainGateway) {
  core::DreParams params;
  util::Rng rng(22);
  const Bytes object = workload::make_file1(rng, 120 * 1460);
  const auto packets = testutil::segment_stream(object);

  // One encoded stream, replayed into both decoders.
  std::vector<packet::PacketPtr> encoded;
  EncoderGateway enc(make_cfg(core::PolicyKind::kNaive, params));
  enc.set_sink([&](packet::PacketPtr p) { encoded.push_back(std::move(p)); });
  for (const auto& pkt : packets) enc.receive(packet::clone_packet(*pkt));

  std::vector<Bytes> plain_wire;
  DecoderGateway plain(make_cfg(core::PolicyKind::kNaive, params));
  plain.set_sink([&](packet::PacketPtr p) {
    plain_wire.push_back(packet::to_wire(*p));
  });
  for (const auto& pkt : encoded) plain.receive(packet::clone_packet(*pkt));

  ShardedDecoderGateway sharded(
      make_cfg(core::PolicyKind::kNaive, params, /*shards=*/1));
  std::vector<Bytes> sharded_wire;
  sharded.set_worker_sink([&](std::size_t, packet::PacketPtr p) {
    sharded_wire.push_back(packet::to_wire(*p));
  });
  for (const auto& pkt : encoded) {
    decode_routed(sharded, packet::clone_packet(*pkt));
  }

  ASSERT_EQ(sharded_wire.size(), plain_wire.size());
  for (std::size_t i = 0; i < plain_wire.size(); ++i) {
    ASSERT_EQ(sharded_wire[i], plain_wire[i])
        << "wire divergence at packet " << i;
  }
  EXPECT_EQ(sharded.stats().packets, plain.stats().packets);
  EXPECT_EQ(sharded.stats().dropped, plain.stats().dropped);
  EXPECT_EQ(sharded.stats().dropped, 0u);
  sharded.audit();
}

// ------------------------------------------- threaded end-to-end stress --

/// Offered and decoded byte streams per host pair; the decoded stream of
/// every flow must equal what was offered, bit for bit, regardless of how
/// the shards interleave — this is the ThreadSanitizer stress.
struct FlowSet {
  std::vector<std::uint64_t> ids;
  std::map<std::uint64_t, Bytes> offered;
  std::vector<packet::PacketPtr> interleaved;
};

FlowSet make_flows(int flows, std::size_t segments_per_flow,
                   std::uint64_t seed) {
  FlowSet fs;
  util::Rng rng(seed);
  std::vector<std::vector<packet::PacketPtr>> streams;
  for (int f = 0; f < flows; ++f) {
    const std::uint32_t src = 0x0A000001 + static_cast<std::uint32_t>(f);
    const std::uint32_t dst = 0x0A010001 + static_cast<std::uint32_t>(f);
    // Random sizes with internal repetition so encoding really happens.
    const Bytes object =
        workload::make_file1(rng, (segments_per_flow + rng.next_u64() % 7) *
                                      1460);
    auto stream = flow_stream(src, dst, object);
    fs.ids.push_back(pair_id(*stream.front()));
    Bytes& offered = fs.offered[fs.ids.back()];
    for (const auto& pkt : stream) {
      util::append(offered, pkt->payload);
    }
    streams.push_back(std::move(stream));
  }
  // Round-robin interleave so every shard is active concurrently.
  for (std::size_t i = 0;; ++i) {
    bool any = false;
    for (auto& stream : streams) {
      if (i < stream.size()) {
        fs.interleaved.push_back(std::move(stream[i]));
        any = true;
      }
    }
    if (!any) break;
  }
  return fs;
}

void run_threaded_end_to_end(std::size_t shards, std::size_t cache_bytes,
                             bool worker_sink_chain) {
  core::DreParams params;
  core::GatewayConfig cfg =
      make_cfg(core::PolicyKind::kNaive, params, shards, /*threaded=*/true,
               /*ring_capacity=*/128);
  cfg.cache.l1_bytes = cache_bytes;

  FlowSet fs = make_flows(/*flows=*/3 * static_cast<int>(shards),
                          /*segments_per_flow=*/40, /*seed=*/shards);

  ShardedEncoderGateway enc(cfg);
  ShardedDecoderGateway dec(cfg);

  // One map per shard: in the worker chain the shards' sinks run on
  // different threads, and a host pair is decoded on exactly one shard.
  std::vector<std::map<std::uint64_t, Bytes>> shard_decoded(shards);
  dec.set_worker_sink([&](std::size_t i, packet::PacketPtr p) {
    util::append(shard_decoded[i][pair_id(*p)], p->payload);
  });

  if (worker_sink_chain) {
    // The bench topology: each encoder shard's worker decodes its output
    // inline on the decoder twin, bypassing the encoder's output rings.
    enc.set_worker_sink([&dec](std::size_t i, packet::PacketPtr p) {
      dec.submit_to_shard(i, std::move(p));
    });
  } else {
    // Driver-thread relay: drain() hands encoder output to the decoder.
    enc.set_sink([&dec](packet::PacketPtr p) {
      decode_routed(dec, std::move(p));
    });
  }

  std::size_t submitted = 0;
  for (auto& pkt : fs.interleaved) {
    enc.submit(std::move(pkt));
    ++submitted;
    if (submitted % 16 == 0) enc.drain();
  }
  enc.drain_until_idle();

  std::map<std::uint64_t, Bytes> decoded;
  for (auto& per_shard : shard_decoded) {
    for (auto& [id, bytes] : per_shard) {
      ASSERT_TRUE(decoded.emplace(id, std::move(bytes)).second)
          << "flow " << id << " decoded on two shards";
    }
  }

  EXPECT_EQ(enc.stats().packets, submitted);
  EXPECT_EQ(dec.stats().packets, submitted);
  EXPECT_EQ(dec.stats().dropped, 0u);
  for (std::uint64_t id : fs.ids) {
    ASSERT_EQ(decoded[id].size(), fs.offered[id].size()) << "flow " << id;
    EXPECT_EQ(decoded[id], fs.offered[id]) << "flow " << id;
  }
  // Aggregated codec stats stay consistent under sharding.
  const core::EncoderStats es = enc.encoder_stats();
  EXPECT_EQ(es.packets, submitted);
  EXPECT_GT(es.encoded_packets, 0u);
  const core::DecoderStats ds = dec.decoder_stats();
  EXPECT_EQ(ds.passthrough + ds.decoded, submitted);
  std::uint64_t offered_total = 0;
  for (const auto& [id, bytes] : fs.offered) offered_total += bytes.size();
  EXPECT_EQ(ds.bytes_restored, offered_total);
  enc.audit();
  dec.audit();
}

TEST(ShardedGateways, ThreadedManyFlowsDriverRelay) {
  run_threaded_end_to_end(/*shards=*/4, /*cache_bytes=*/0,
                          /*worker_sink_chain=*/false);
}

TEST(ShardedGateways, ThreadedManyFlowsWorkerSinkChain) {
  run_threaded_end_to_end(/*shards=*/4, /*cache_bytes=*/0,
                          /*worker_sink_chain=*/true);
}

TEST(ShardedGateways, ThreadedBoundedCacheChurn) {
  // A small byte budget forces constant eviction in every shard while
  // the workers run — the hostile case for cache bookkeeping races.
  run_threaded_end_to_end(/*shards=*/4, /*cache_bytes=*/64 * 1024,
                          /*worker_sink_chain=*/false);
}

TEST(ShardedGateways, OddShardCountAndSingleFlowPileUp) {
  // All flows of one host pair land on one shard of three; the others
  // idle — exercises the stop/drain protocol with unbalanced load.
  run_threaded_end_to_end(/*shards=*/3, /*cache_bytes=*/0,
                          /*worker_sink_chain=*/false);
}

// ------------------------------------------------------- control paths --

TEST(ShardedGateways, NackFeedbackRoutesToOwningShard) {
  core::DreParams params;
  params.nack_feedback = true;
  // Inline (non-threaded): deterministic loss injection.
  const core::GatewayConfig cfg = make_cfg(core::PolicyKind::kNaive, params,
                                           /*shards=*/4, /*threaded=*/false);

  ShardedEncoderGateway enc(cfg);
  ShardedDecoderGateway dec(cfg);
  dec.set_feedback([&](packet::PacketPtr p) {
    // The reverse-direction control packet must hash to the shard that
    // owns the forward flow; submit_control asserts nothing, so prove it
    // through the aggregated NACK counter below.
    enc.submit_control(std::move(p));
  });
  std::size_t delivered = 0;
  dec.set_worker_sink([&](std::size_t, packet::PacketPtr) { ++delivered; });

  // Inline mode makes the whole loop synchronous: encode -> (maybe lose)
  // -> decode -> NACK -> encoder invalidation, one packet at a time.
  std::size_t wire_index = 0;
  enc.set_sink([&](packet::PacketPtr p) {
    if (wire_index++ == 0) return;  // the first packet is lost in flight
    decode_routed(dec, std::move(p));
  });

  // A heavily self-similar object: later segments reference the first,
  // which the decoder never received, forcing missing-fingerprint drops
  // and NACKs on that flow's shard.
  util::Rng rng(31);
  const std::uint32_t src = 0x0A000009;
  const std::uint32_t dst = 0x0A010009;
  const Bytes block = testutil::random_bytes(rng, 1460);
  Bytes object;
  for (int i = 0; i < 6; ++i) util::append(object, block);
  for (auto& pkt : flow_stream(src, dst, object)) {
    enc.submit(std::move(pkt));
  }
  EXPECT_GT(dec.stats().dropped, 0u);
  EXPECT_GT(dec.stats().nacks_sent, 0u);
  // The feedback loop reached the encoder that owns the flow: the NACKed
  // control packets were routed by the symmetric key to its shard.
  EXPECT_EQ(enc.encoder_stats().nacks_received, dec.stats().nacks_sent);
  EXPECT_GT(enc.encoder_stats().nack_invalidations, 0u);

  // Fresh content passes through, is cached on BOTH sides, and a repeat
  // of it decodes — the flow recovers after the invalidations.
  const Bytes fresh = workload::make_file1(rng, 10 * 1460);
  for (int pass = 0; pass < 2; ++pass) {
    for (auto& pkt : flow_stream(src, dst, fresh)) {
      enc.submit(std::move(pkt));
    }
  }
  EXPECT_GT(delivered, 0u);
  EXPECT_GT(dec.decoder_stats().decoded, 0u);
  enc.audit();
  dec.audit();
}

TEST(ShardedGateways, ReverseAckRoutesToOwningShardWhenGated) {
  core::DreParams params;
  params.ack_gated = true;
  ShardedEncoderGateway enc(make_cfg(core::PolicyKind::kNaive, params,
                                     /*shards=*/4, /*threaded=*/false));
  std::vector<packet::PacketPtr> encoded;
  enc.set_sink([&](packet::PacketPtr p) { encoded.push_back(std::move(p)); });

  util::Rng rng(33);
  const Bytes block = testutil::random_bytes(rng, 1460);
  Bytes object;
  for (int i = 0; i < 8; ++i) util::append(object, block);
  const std::uint32_t src = 0x0A000005;
  const std::uint32_t dst = 0x0A010005;

  // Without any reverse ACK observed, the gate rejects every reference.
  for (auto& pkt : flow_stream(src, dst, object)) {
    enc.submit(std::move(pkt));
  }
  const std::uint64_t rejected_before = enc.encoder_stats().ack_gate_rejections;
  EXPECT_GT(rejected_before, 0u);
  EXPECT_EQ(enc.encoder_stats().encoded_packets, 0u);

  // A reverse ACK covering the whole stream opens the gate; it must be
  // routed (by the symmetric key) to the shard owning the forward flow.
  packet::TcpHeader ack;
  ack.src_port = 40000;
  ack.dst_port = 80;
  ack.seq = 1;
  ack.ack = 1000 + static_cast<std::uint32_t>(object.size());
  ack.flags = packet::TcpHeader::kAck;
  Bytes segment;
  ack.serialize(segment, {}, dst, src);
  enc.submit_reverse(
      packet::make_packet(dst, src, packet::IpProto::kTcp, std::move(segment)));

  for (auto& pkt : flow_stream(src, dst, object)) {
    enc.submit(std::move(pkt));
  }
  EXPECT_GT(enc.encoder_stats().encoded_packets, 0u);
  enc.audit();
}

}  // namespace
}  // namespace bytecache::gateway
