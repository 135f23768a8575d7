// Anchor reuse and owner-count equivalence suite (DESIGN.md §15).
//
// Under value sampling both codecs take the anchors inside a copied
// region from the region's cached source instead of rescanning it, and
// the fingerprint index keeps a per-packet owned-entry count so a victim
// owning nothing skips the eviction purge.  Both are pure CPU savings:
//   - AnchorReuseEquiv: after every packet, the newest store entry on
//     each side holds exactly compute_anchors() of its payload — planted
//     repeats, regions at packet edges, regions shorter than w, the
//     255-region cap, tier promotions, and the position-dependent modes
//     that never reuse;
//   - OwnerCountEquiv: under random update / find / NACK / flush
//     sequences through a tiered cache (so evictions, demotions and
//     promotions happen too), every owner count equals the number of
//     index entries naming that owner;
//   - CacheableEquiv: header-only TCP segments are skipped by both
//     codecs, so a bounded cache stays identical on both sides.
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "cache/cache_tier.h"
#include "cache/l2_store.h"
#include "core/anchors.h"
#include "core/cacheable.h"
#include "core/decoder.h"
#include "core/encoder.h"
#include "core/wire.h"
#include "tests/testutil.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace bytecache {
namespace {

using testutil::make_tcp_packet;
using testutil::make_udp_packet;
using testutil::random_bytes;
using testutil::test_encoder;
using util::Bytes;
using util::Rng;

// ------------------------------------------------------- anchor reuse --

/// Holds the newest entry of `tier` to `payload` and its full anchor set.
void expect_newest_entry(const cache::CacheTier& tier, const Bytes& payload,
                         const std::vector<rabin::Anchor>& expected,
                         const char* side, std::size_t i) {
  if (expected.empty()) return;  // never stored
  ASSERT_GT(tier.store().size(), 0u) << side << " packet " << i;
  const cache::CachedPacket& p = tier.store().entries().front();
  ASSERT_EQ(p.payload, util::BytesView(payload)) << side << " packet " << i;
  ASSERT_EQ(p.fps.size(), expected.size()) << side << " packet " << i;
  ASSERT_EQ(p.offsets.size(), expected.size()) << side << " packet " << i;
  for (std::size_t j = 0; j < expected.size(); ++j) {
    ASSERT_EQ(p.fps[j], expected[j].fp) << side << " packet " << i
                                        << " anchor " << j;
    ASSERT_EQ(p.offsets[j], expected[j].offset)
        << side << " packet " << i << " anchor " << j;
  }
}

/// A lossless encoder -> decoder pair that checks both sides' newest
/// store entry against the full scan after every packet.
class CheckedPair {
 public:
  explicit CheckedPair(const core::DreParams& params,
                       const cache::CacheConfig& cc = {})
      : params_(params), tables_(params.window, params.poly) {
    if (cc.has_l2()) {
      enc_l2_ = std::make_unique<cache::L2Store>(cc, 1);
      dec_l2_ = std::make_unique<cache::L2Store>(cc, 1);
    }
    enc_ = std::make_unique<core::Encoder>(
        params, core::make_policy(core::PolicyKind::kNaive, params), cc,
        enc_l2_.get());
    dec_ = std::make_unique<core::Decoder>(params, cc, dec_l2_.get());
  }

  /// Sends one packet through both codecs; returns its region count.
  std::size_t send(packet::Packet& pkt) {
    const Bytes original = pkt.payload;
    const bool cached = core::cacheable_payload(pkt, params_.window);
    const std::vector<rabin::Anchor> expected =
        core::compute_anchors(tables_, original, params_);
    const core::EncodeInfo info = enc_->process(pkt);
    if (cached) expect_newest_entry(enc_->cache(), original, expected,
                                    "encoder", sent_);
    const core::DecodeInfo dinfo = dec_->process(pkt);
    EXPECT_FALSE(core::is_drop(dinfo.status)) << "packet " << sent_;
    EXPECT_EQ(pkt.payload, original) << "packet " << sent_;
    if (cached) expect_newest_entry(dec_->cache(), original, expected,
                                    "decoder", sent_);
    ++sent_;
    regions_ += info.regions;
    return info.regions;
  }

  std::size_t send(util::BytesView payload) {
    auto pkt = make_udp_packet(payload);
    return send(*pkt);
  }

  void audit() const {
    enc_->audit();
    dec_->audit();
  }

  [[nodiscard]] core::Encoder& enc() { return *enc_; }
  [[nodiscard]] core::Decoder& dec() { return *dec_; }
  [[nodiscard]] std::size_t regions() const { return regions_; }

 private:
  core::DreParams params_;
  rabin::RabinTables tables_;
  std::unique_ptr<cache::L2Store> enc_l2_, dec_l2_;
  std::unique_ptr<core::Encoder> enc_;
  std::unique_ptr<core::Decoder> dec_;
  std::size_t sent_ = 0;
  std::size_t regions_ = 0;
};

/// A packet of literals interleaved with spans copied from `history`.
Bytes planted(Rng& rng, const std::vector<Bytes>& history, std::size_t n) {
  Bytes out;
  while (out.size() < n) {
    if (history.empty() || rng.uniform(0, 3) == 0) {
      const Bytes lit = random_bytes(rng, rng.uniform(1, 200));
      out.insert(out.end(), lit.begin(), lit.end());
    } else {
      const Bytes& src = history[rng.uniform(0, history.size() - 1)];
      const std::size_t len = rng.uniform(1, std::min<std::size_t>(
                                                 600, src.size()));
      const std::size_t at = rng.uniform(0, src.size() - len);
      out.insert(out.end(), src.begin() + static_cast<std::ptrdiff_t>(at),
                 src.begin() + static_cast<std::ptrdiff_t>(at + len));
    }
  }
  out.resize(n);
  return out;
}

/// Sends `count` planted-repeat packets through `pair`.
void send_planted(CheckedPair& pair, Rng& rng, std::size_t count) {
  std::vector<Bytes> history;
  for (std::size_t i = 0; i < count; ++i) {
    Bytes payload = planted(rng, history, rng.uniform(16, 1460));
    pair.send(payload);
    history.push_back(std::move(payload));
    if (history.size() > 64) history.erase(history.begin());
  }
}

TEST(AnchorReuseEquiv, PlantedRepeatsMatchTheFullScan) {
  Rng rng(testutil::test_seed(1501));
  CheckedPair pair(core::DreParams{});
  send_planted(pair, rng, 600);
  EXPECT_GT(pair.regions(), 600u);  // reuse had plenty to do
  pair.audit();
}

TEST(AnchorReuseEquiv, RegionsAtPacketEdges) {
  Rng rng(testutil::test_seed(1502));
  CheckedPair pair(core::DreParams{});
  const Bytes a = random_bytes(rng, 1400);
  const Bytes b = random_bytes(rng, 900);
  pair.send(a);
  pair.send(b);
  // Whole-packet copy: one region from offset 0 to the last byte.
  EXPECT_EQ(pair.send(a), 1u);
  // Copy at the head, fresh tail; fresh head, copy at the tail.
  Bytes head_copy(a.begin(), a.begin() + 700);
  const Bytes fresh = random_bytes(rng, 300);
  head_copy.insert(head_copy.end(), fresh.begin(), fresh.end());
  pair.send(head_copy);
  Bytes tail_copy = random_bytes(rng, 250);
  tail_copy.insert(tail_copy.end(), b.end() - 600, b.end());
  pair.send(tail_copy);
  // Two sources back to back: the seam windows straddle both regions.
  Bytes joined(b.begin(), b.begin() + 500);
  joined.insert(joined.end(), a.end() - 500, a.end());
  pair.send(joined);
  // A copy that starts and ends just inside the source's edges.
  pair.send(util::BytesView(a).subspan(1, a.size() - 2));
  pair.audit();
}

TEST(AnchorReuseEquiv, RegionsShorterThanTheWindowAreGapScanned) {
  // The encoder never emits a region shorter than w (a match grows from
  // one w-byte window), but the decoder must take whatever the wire
  // holds: craft encoded packets whose regions are shorter than, equal
  // to, and one longer than the window.
  Rng rng(testutil::test_seed(1503));
  const core::DreParams params;
  const rabin::RabinTables tables(params.window, params.poly);
  core::Decoder dec(params);
  for (const std::size_t len : {std::size_t{8}, params.window,
                                params.window + 1, std::size_t{200}}) {
    // A fresh source each time: the region's fingerprint must name it.
    const Bytes src = random_bytes(rng, 1200);
    auto first = make_udp_packet(src);
    ASSERT_EQ(dec.process(*first).status, core::DecodeStatus::kPassthrough);
    const auto src_anchors = core::compute_anchors(tables, src, params);
    ASSERT_GE(src_anchors.size(), 4u);
    const rabin::Anchor& a = src_anchors[1];
    ASSERT_LE(a.offset + len, src.size());
    const Bytes pre = random_bytes(rng, 40);
    const Bytes post = random_bytes(rng, 60);
    Bytes original = pre;
    original.insert(original.end(), src.begin() + a.offset,
                    src.begin() + static_cast<std::ptrdiff_t>(a.offset + len));
    original.insert(original.end(), post.begin(), post.end());

    core::EncodedPayload enc;
    enc.orig_proto = static_cast<std::uint8_t>(packet::IpProto::kUdp);
    enc.orig_len = static_cast<std::uint16_t>(original.size());
    enc.crc = util::crc32(original);
    enc.regions.push_back(core::EncodedRegion{
        a.fp, static_cast<std::uint16_t>(pre.size()), a.offset,
        static_cast<std::uint16_t>(len)});
    enc.literals = pre;
    enc.literals.insert(enc.literals.end(), post.begin(), post.end());
    auto pkt = packet::make_packet(testutil::kSrcIp, testutil::kDstIp,
                                   packet::IpProto::kDre, enc.serialize());
    ASSERT_EQ(dec.process(*pkt).status, core::DecodeStatus::kDecoded)
        << "len " << len;
    ASSERT_EQ(pkt->payload, original) << "len " << len;
    expect_newest_entry(dec.cache(), original,
                        core::compute_anchors(tables, original, params),
                        "decoder", len);
  }
  dec.audit();
}

TEST(AnchorReuseEquiv, RegionCapScansTheRestOfThePacket) {
  // Every 101st byte of a cached payload flipped: ~300 matchable
  // stretches, more than the shim's 255 regions.  Past the cap the
  // encoder must still deliver the payload's full anchor set.
  Rng rng(testutil::test_seed(1504));
  CheckedPair pair(core::DreParams{});
  const Bytes src = random_bytes(rng, 30300);
  pair.send(src);
  Bytes edited = src;
  for (std::size_t i = 100; i < edited.size(); i += 101) edited[i] ^= 0x5A;
  EXPECT_EQ(pair.send(edited), 255u);
  pair.audit();
}

TEST(AnchorReuseEquiv, TierPromotionsCarryTheAnchorList) {
  // A 64 KiB cycle replayed past a 16 KiB L1: sources are hit in the
  // L2, copied out of it, and promoted back with their anchor lists.
  Rng rng(testutil::test_seed(1505));
  cache::CacheConfig cc;
  cc.l1_bytes = 16 * 1024;
  cc.l2_bytes = 1024 * 1024;
  CheckedPair pair(core::DreParams{}, cc);
  std::vector<Bytes> cycle;
  for (int i = 0; i < 64; ++i) cycle.push_back(random_bytes(rng, 1024));
  for (int rep = 0; rep < 3; ++rep) {
    for (const Bytes& chunk : cycle) {
      // Splice each chunk with a little noise so regions end mid-packet.
      Bytes payload = chunk;
      const Bytes noise = random_bytes(rng, rng.uniform(0, 64));
      payload.insert(payload.begin() + 512, noise.begin(), noise.end());
      pair.send(payload);
    }
  }
  const cache::TierStats& tier = pair.enc().cache().tier_stats();
  EXPECT_GT(tier.l2_hits, 0u);
  EXPECT_GT(tier.promotions, 0u);
  EXPECT_GT(pair.regions(), 64u);
  pair.audit();
}

TEST(AnchorReuseEquiv, PositionDependentModesKeepTheFullScan) {
  for (const core::SelectMode mode :
       {core::SelectMode::kMaxp, core::SelectMode::kSampleByte}) {
    Rng rng(testutil::test_seed(1507));
    core::DreParams params;
    params.select_mode = mode;
    EXPECT_FALSE(core::anchors_reusable(params));
    CheckedPair pair(params);
    send_planted(pair, rng, 300);
    EXPECT_GT(pair.regions(), 0u);
    pair.audit();
  }
}

// ------------------------------------------------------- owner counts --

/// Holds every owner count of `index` to the entries naming that owner.
void expect_exact_owner_counts(const cache::FingerprintTable& index,
                               std::size_t step) {
  std::unordered_map<std::uint64_t, std::uint32_t> tally;
  index.for_each([&](rabin::Fingerprint, const cache::FpEntry& e) {
    ++tally[e.packet_id];
  });
  ASSERT_EQ(index.owner_count(), tally.size()) << "step " << step;
  for (const auto& [id, n] : tally) {
    ASSERT_EQ(index.owned(id), n) << "packet " << id << " step " << step;
  }
}

TEST(OwnerCountEquiv, RandomTierOperationsKeepCountsExact) {
  Rng rng(testutil::test_seed(1508));
  const core::DreParams params;
  const rabin::RabinTables tables(params.window, params.poly);
  cache::CacheConfig cc;
  cc.l1_bytes = 8 * 1024;  // evicts (and demotes) constantly
  cc.l2_bytes = 32 * 1024;
  cc.per_host_pair_bytes = 16 * 1024;
  cache::L2Store l2(cc, 1);
  cache::CacheTier tier(cc, &l2);
  // A small pool of chunks, so packets keep overwriting each other's
  // entries — wholly or in part.
  std::vector<Bytes> pool;
  for (int i = 0; i < 24; ++i) pool.push_back(random_bytes(rng, 600));
  for (std::size_t step = 0; step < 2000; ++step) {
    const std::uint64_t op = rng.uniform(0, 99);
    if (op < 70) {  // update: one or two pool chunks, maybe trimmed
      Bytes payload = pool[rng.uniform(0, pool.size() - 1)];
      if (rng.uniform(0, 1) == 0) {
        const Bytes& more = pool[rng.uniform(0, pool.size() - 1)];
        payload.insert(payload.end(), more.begin(), more.end());
      }
      payload.resize(rng.uniform(16, payload.size()));
      cache::PacketMeta meta;
      meta.host_key = 1 + rng.uniform(0, 2);
      tier.update(payload, core::compute_anchors(tables, payload, params),
                  meta);
    } else if (op < 88) {  // lookups: L2 hits queue promotions
      const Bytes& chunk = pool[rng.uniform(0, pool.size() - 1)];
      for (const rabin::Anchor& a :
           core::compute_anchors(tables, chunk, params)) {
        (void)tier.find(a.fp);
      }
    } else if (op < 97) {  // NACK a fingerprint, in whichever tier
      const Bytes& chunk = pool[rng.uniform(0, pool.size() - 1)];
      const auto anchors = core::compute_anchors(tables, chunk, params);
      if (!anchors.empty()) {
        (void)tier.invalidate(anchors[rng.uniform(0, anchors.size() - 1)].fp);
      }
    } else if (op < 98) {
      tier.flush();
    }  // the remaining 2% of steps only re-check the counts
    expect_exact_owner_counts(tier.table(), step);
    tier.audit();
  }
  const cache::TierStats& ts = tier.tier_stats();
  EXPECT_GT(ts.demotions, 0u);
  EXPECT_GT(ts.promotions, 0u);
  EXPECT_GT(ts.l2_evictions + ts.host_evictions, 0u);
  EXPECT_GT(tier.stats().fingerprints_purged, 0u);
}

// ------------------------------------------- header-only TCP segments --

TEST(CacheableEquiv, HeaderOnlySegmentsKeepBoundedStoresIdentical) {
  // A third of the segments carry no data (SYN/FIN/pure-ACK shapes).
  // The encoder forwards them uncached; the decoder must too, or its
  // bounded L1 spends budget the encoder's does not and the two evict
  // different packets.
  Rng rng(testutil::test_seed(1509));
  const core::DreParams params;
  cache::CacheConfig cc;
  cc.l1_bytes = 64 * 1024;
  core::Encoder enc = test_encoder(core::PolicyKind::kNaive, params, cc);
  core::Decoder dec(params, cc);
  const Bytes object = random_bytes(rng, 96 * 1024);
  std::uint32_t seq = 1000;
  for (int i = 0; i < 4000; ++i) {
    packet::PacketPtr pkt;
    if (i % 3 == 2) {
      pkt = make_tcp_packet({}, seq);
      ASSERT_FALSE(core::cacheable_payload(*pkt, params.window));
    } else {
      const std::size_t len = rng.uniform(200, 1400);
      const std::size_t at = rng.uniform(0, object.size() - len);
      pkt = make_tcp_packet(util::BytesView(object).subspan(at, len), seq);
      seq += static_cast<std::uint32_t>(len);
    }
    const Bytes original = pkt->payload;
    enc.process(*pkt);
    const core::DecodeInfo info = dec.process(*pkt);
    ASSERT_FALSE(core::is_drop(info.status)) << "packet " << i;
    ASSERT_EQ(pkt->payload, original) << "packet " << i;
  }
  EXPECT_EQ(dec.stats().drops(), 0u);
  EXPECT_GT(enc.stats().encoded_packets, 0u);
  const cache::PacketStore& es = enc.cache().store();
  const cache::PacketStore& ds = dec.cache().store();
  ASSERT_EQ(es.size(), ds.size());
  EXPECT_EQ(es.bytes_used(), ds.bytes_used());
  EXPECT_GT(es.evictions(), 0u);
  auto e = es.entries().begin();
  auto d = ds.entries().begin();
  for (; e != es.entries().end(); ++e, ++d) {
    ASSERT_EQ(e->id, d->id);
    ASSERT_EQ(e->payload, util::BytesView(d->payload)) << "id " << e->id;
  }
  enc.audit();
  dec.audit();
}

}  // namespace
}  // namespace bytecache
