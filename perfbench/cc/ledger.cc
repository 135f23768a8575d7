#include "ledger.h"

#include <memory>
#include <vector>

#include "cache/cache_tier.h"
#include "cache/l2_store.h"
#include "core/anchors.h"
#include "core/flow.h"
#include "core/wire.h"
#include "drivers.h"
#include "fec/encoder.h"
#include "gateway/sharded_gateways.h"
#include "rabin/window.h"
#include "stats.h"
#include "util/crc32.h"

namespace perfbench {

namespace core = bytecache::core;
namespace cache = bytecache::cache;
namespace fec = bytecache::fec;
namespace rabin = bytecache::rabin;
using bytecache::util::Bytes;
using bytecache::util::BytesView;

namespace {

/// One shard's codec pair, attached to that side's shared L2 store.
struct ShardCodec {
  std::unique_ptr<core::Encoder> enc;
  std::unique_ptr<core::Decoder> dec;
};

/// Payloads captured at the layer boundaries during one pass.
struct Capture {
  std::vector<Bytes> enc_side;      // originals the encoder scanned
  std::vector<std::size_t> enc_shard;
  std::vector<std::uint64_t> enc_host;
  std::vector<Bytes> dec_side;      // reconstructed payloads the decoder cached
  std::vector<Bytes> wire;          // encoded payloads, as sent
  std::vector<Bytes> images;        // wire images of the data packets
};

/// Repeats `body` (one sweep over the captured data) until it has run
/// for `min_s` seconds and at least three times; returns the median
/// nanoseconds of one sweep.
template <typename Body>
double sweep_ns(double min_s, Body&& body) {
  std::vector<double> reps;
  const std::int64_t start = now_ns();
  while (reps.size() < 3 ||
         (now_ns() - start) < static_cast<std::int64_t>(min_s * 1e9)) {
    const std::int64_t t0 = now_ns();
    body();
    reps.push_back(static_cast<double>(now_ns() - t0));
    if (reps.size() >= 2000) break;
  }
  return median(std::move(reps));
}

std::uint64_t total_bytes(const std::vector<Bytes>& v) {
  std::uint64_t n = 0;
  for (const Bytes& b : v) n += b.size();
  return n;
}

}  // namespace

void run_ledger(const Stream& s, const core::GatewayConfig& cfg,
                double budget_s, Report& r) {
  const std::size_t shards = cfg.shards;
  const core::DreParams& params = cfg.params;
  std::unique_ptr<cache::L2Store> l2_enc;
  std::unique_ptr<cache::L2Store> l2_dec;
  if (cfg.cache.has_l2()) {
    l2_enc = std::make_unique<cache::L2Store>(cfg.cache, shards);
    l2_dec = std::make_unique<cache::L2Store>(cfg.cache, shards);
  }
  std::vector<ShardCodec> codecs(shards);
  for (ShardCodec& c : codecs) {
    c.enc = core::make_encoder(cfg, l2_enc.get());
    c.dec = core::make_decoder(cfg, l2_dec.get());
  }
  std::vector<std::size_t> shard_of(s.pkts.size());
  for (std::size_t i = 0; i < s.pkts.size(); ++i) {
    const auto pkt = to_packet(s.pkts[i], 0, 0);
    shard_of[i] = bytecache::gateway::shard_index_of(
        bytecache::gateway::shard_key_of(*pkt), shards);
  }

  // ---- Codec passes: one warm-up, then timed passes; the first timed
  // pass is captured.  Counters are deltas over the timed passes.
  Samples enc_ns(4'000'000);
  Samples dec_ns(4'000'000);
  Capture cap;
  std::uint64_t failures = 0;
  std::uint64_t attempted = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t offered = 0;
  core::EncoderStats e0;
  cache::CacheStats c0;
  cache::TierStats t0;
  fec::RepairEncoderStats f0;
  auto sum_stats = [&](core::EncoderStats& e, cache::CacheStats& c,
                       cache::TierStats& t, fec::RepairEncoderStats& f) {
    e = {};
    c = {};
    t = {};
    f = {};
    for (const ShardCodec& sc : codecs) {
      core::merge_into(e, sc.enc->stats());
      cache::merge_into(c, sc.enc->cache().stats());
      cache::merge_into(t, sc.enc->cache().tier_stats());
      fec::merge_into(f, sc.enc->repair_stats());
    }
  };

  const std::int64_t codec_deadline =
      now_ns() + static_cast<std::int64_t>(budget_s * 0.5e9);
  std::uint64_t uid = 0;
  for (std::size_t pass = 0;; ++pass) {
    if (pass == 1) sum_stats(e0, c0, t0, f0);
    const bool capture = pass == 1;
    const auto shift = static_cast<std::uint32_t>(pass * kPassShift);
    for (std::size_t i = 0; i < s.pkts.size(); ++i) {
      ShardCodec& sc = codecs[shard_of[i]];
      auto pkt = to_packet(s.pkts[i], shift, ++uid);
      if (capture && pkt->payload.size() >= params.window) {
        cap.enc_side.push_back(pkt->payload);
        cap.enc_shard.push_back(shard_of[i]);
        cap.enc_host.push_back(core::host_key_of(pkt->ip.src, pkt->ip.dst));
      }
      const std::int64_t a = now_ns();
      const core::EncodeInfo ei = sc.enc->process(*pkt);
      const std::int64_t b = now_ns();
      std::uint64_t repair_bytes = 0;
      for (const Bytes& rp : ei.repairs) repair_bytes += rp.size();
      if (capture && ei.data_packet) {
        if (pkt->proto() == bytecache::packet::IpProto::kDre) {
          cap.wire.push_back(pkt->payload);
        }
        cap.images.push_back(bytecache::packet::to_wire(*pkt));
      }
      const std::int64_t c = now_ns();
      const core::DecodeInfo di = sc.dec->process(*pkt);
      const std::int64_t d = now_ns();
      if (pass > 0) {
        enc_ns.push(static_cast<double>(b - a));
        dec_ns.push(static_cast<double>(d - c));
        ++attempted;
        offered += s.pkts[i].bytes.size();
        wire_bytes += ei.sent_size + repair_bytes;
      }
      const bool ok = !core::is_drop(di.status) &&
                      same_bytes(pkt->payload, s.pkts[i], shift);
      if (!ok) ++failures;
      if (capture && ok && pkt->payload.size() >= params.window &&
          pkt->payload.size() <= 0xFFFF) {
        cap.dec_side.push_back(pkt->payload);
      }
    }
    if (pass >= 2 && now_ns() > codec_deadline) break;
  }
  core::EncoderStats e1;
  cache::CacheStats c1;
  cache::TierStats t1;
  fec::RepairEncoderStats f1;
  sum_stats(e1, c1, t1, f1);
  if (failures != 0) {
    r.fail("ledger replay: %llu of %llu packets not delivered byte-identical",
           static_cast<unsigned long long>(failures),
           static_cast<unsigned long long>(attempted));
  }

  // ---- Isolated layer timings over the captured payloads.
  const double slice = budget_s * 0.5 / 7;
  const rabin::RabinTables tables(params.window, params.poly);
  core::AnchorWorkspace ws;
  std::uint64_t anchors_enc = 0;
  std::uint64_t anchors_dec = 0;
  const double scan_enc = sweep_ns(slice, [&] {
    anchors_enc = 0;
    for (const Bytes& p : cap.enc_side) {
      anchors_enc += core::compute_anchors(tables, p, params, ws).size();
    }
  });
  const double scan_dec = sweep_ns(slice, [&] {
    anchors_dec = 0;
    for (const Bytes& p : cap.dec_side) {
      anchors_dec += core::compute_anchors(tables, p, params, ws).size();
    }
  });
  // The timed calls live in other translation units (no LTO), so their
  // results need no sink to stay live.
  const double crc = sweep_ns(slice, [&] {
    for (const Bytes& p : cap.enc_side) (void)bytecache::util::crc32(p);
  });

  std::vector<core::EncodedPayload> parsed(cap.wire.size());
  for (std::size_t i = 0; i < cap.wire.size(); ++i) {
    if (!core::EncodedPayload::parse_into(cap.wire[i], parsed[i])) {
      r.fail("ledger: captured wire payload %zu does not parse", i);
    }
  }
  Bytes ser_out;
  const double serialize = sweep_ns(slice, [&] {
    for (const core::EncodedPayload& e : parsed) e.serialize_into(ser_out);
  });
  core::EncodedPayload parse_out;
  const double parse = sweep_ns(slice, [&] {
    for (const Bytes& w : cap.wire) {
      (void)core::EncodedPayload::parse_into(w, parse_out);
    }
  });

  // Shadow cache: one tier per shard with the codec's geometry, fed the
  // encoder's sequence — probe every anchor (batched), resolve each, then
  // update.  Anchors are precomputed so only the cache is timed.  It
  // resolves every anchor, so it bounds the encoder's probe work from
  // above (the encoder skips anchors inside an already-matched region).
  std::vector<std::vector<rabin::Anchor>> anchors(cap.enc_side.size());
  for (std::size_t i = 0; i < cap.enc_side.size(); ++i) {
    anchors[i] = core::compute_anchors(tables, cap.enc_side[i], params);
  }
  double probe = 0;
  double update = 0;
  {
    std::vector<double> probe_reps;
    std::vector<double> update_reps;
    std::uint64_t hits = 0;
    const std::int64_t start = now_ns();
    while (probe_reps.size() < 3 ||
           now_ns() - start < static_cast<std::int64_t>(slice * 2e9)) {
      std::unique_ptr<cache::L2Store> l2;
      if (cfg.cache.has_l2()) {
        l2 = std::make_unique<cache::L2Store>(cfg.cache, shards);
      }
      std::vector<std::unique_ptr<cache::CacheTier>> tiers;
      for (std::size_t i = 0; i < shards; ++i) {
        tiers.push_back(std::make_unique<cache::CacheTier>(cfg.cache, l2.get()));
      }
      std::vector<cache::ProbeResult> probes;
      std::int64_t p_ns = 0;
      std::int64_t u_ns = 0;
      for (std::size_t i = 0; i < cap.enc_side.size(); ++i) {
        cache::CacheTier& tier = *tiers[cap.enc_shard[i]];
        const std::int64_t a = now_ns();
        tier.probe_batch(anchors[i], probes);
        for (std::size_t k = 0; k < anchors[i].size(); ++k) {
          hits += tier.resolve(anchors[i][k].fp, probes[k]).has_value() ? 1 : 0;
        }
        const std::int64_t b = now_ns();
        cache::PacketMeta meta;
        meta.stream_index = i;
        meta.src_uid = i + 1;
        meta.host_key = cap.enc_host[i];
        tier.update(cap.enc_side[i], anchors[i], meta);
        const std::int64_t c = now_ns();
        p_ns += b - a;
        u_ns += c - b;
      }
      probe_reps.push_back(static_cast<double>(p_ns));
      update_reps.push_back(static_cast<double>(u_ns));
      if (probe_reps.size() >= 200) break;
    }
    probe = median(std::move(probe_reps));
    update = median(std::move(update_reps));
  }

  fec::RepairEncoder repair(params.repair);
  const double add_member = sweep_ns(slice, [&] {
    for (const Bytes& img : cap.images) {
      repair.begin_packet();
      (void)repair.next_tag();
      repair.add_member(img);
    }
  });

  // ---- Report.  Bases: per KiB of scanned payload, per packet offered
  // (pkt), per 1000 packets offered (kpkt), per encoded packet for the
  // wire codec, per cache lookup for the hit ratios.
  const double kb_enc = static_cast<double>(total_bytes(cap.enc_side)) / 1024;
  const double kb_dec = static_cast<double>(total_bytes(cap.dec_side)) / 1024;
  const double n_pkts = static_cast<double>(s.pkts.size());
  const double n_enc = static_cast<double>(cap.enc_side.size());
  const double n_wire = static_cast<double>(cap.wire.size());
  const double n_img = static_cast<double>(cap.images.size());
  r.set("rabin.enc_scan_ns_per_kb", ratio(scan_enc, kb_enc), "ns/KiB");
  r.set("rabin.dec_scan_ns_per_kb", ratio(scan_dec, kb_dec), "ns/KiB");
  r.set("rabin.enc_anchors_per_kb", ratio(static_cast<double>(anchors_enc), kb_enc),
        "1/KiB");
  r.set("rabin.dec_anchors_per_kb", ratio(static_cast<double>(anchors_dec), kb_dec),
        "1/KiB");
  r.set("util.crc32_ns_per_kb", ratio(crc, kb_enc), "ns/KiB");

  const auto enc_v = enc_ns.values();
  const auto dec_v = dec_ns.values();
  const Percentile e50 = percentile(enc_v, 0.5);
  const Percentile e99 = percentile(enc_v, 0.99);
  const Percentile d50 = percentile(dec_v, 0.5);
  const Percentile d99 = percentile(dec_v, 0.99);
  r.set("core.encode_ns_p50", e50.value, "ns");
  r.set("core.encode_ns_p99", e99.value, "ns");
  r.set("core.decode_ns_p50", d50.value, "ns");
  r.set("core.decode_ns_p99", d99.value, "ns");
  r.note("ledger: encode/decode p99 at q=%.4f over %zu packets", e99.q, e99.n);
  r.set("core.wire_serialize_ns_per_pkt", ratio(serialize, n_wire), "ns");
  r.set("core.wire_parse_ns_per_pkt", ratio(parse, n_wire), "ns");

  const double pkts = static_cast<double>(e1.packets - e0.packets);
  const double encoded = static_cast<double>(e1.encoded_packets - e0.encoded_packets);
  const double data = static_cast<double>(e1.data_packets - e0.data_packets);
  r.set("core.encoded_share", ratio(encoded, data), "ratio");
  r.set("core.regions_per_pkt",
        ratio(static_cast<double>(e1.regions - e0.regions), encoded), "count");
  r.set("core.deps_per_pkt",
        ratio(static_cast<double>(e1.dependency_links - e0.dependency_links),
              encoded),
        "count");
  r.set("core.retransmissions_per_kpkt",
        1000 * ratio(static_cast<double>(e1.retransmissions - e0.retransmissions),
                     pkts),
        "1/kpkt");
  r.set("core.flushes_per_kpkt",
        1000 * ratio(static_cast<double>(e1.flushes - e0.flushes), pkts),
        "1/kpkt");

  // Per-packet means of every isolated layer on the encode+decode path:
  // both sides scan, CRC and update; the encoder probes; encoded packets
  // are serialized and parsed once; coded repair adds one member each.
  double mean_enc = 0;
  double mean_dec = 0;
  for (double v : enc_v) mean_enc += v;
  for (double v : dec_v) mean_dec += v;
  mean_enc = ratio(mean_enc, static_cast<double>(enc_v.size()));
  mean_dec = ratio(mean_dec, static_cast<double>(dec_v.size()));
  const double layers = (scan_enc + scan_dec + 2 * crc + probe + 2 * update +
                         serialize + parse +
                         (params.coded_repair ? add_member : 0)) /
                        n_pkts;
  r.set("core.unattributed_ns_per_pkt", mean_enc + mean_dec - layers, "ns");
  r.note("ledger: encode+decode mean %.0f ns/pkt, isolated layers %.0f ns/pkt",
         mean_enc + mean_dec, layers);

  r.set("cache.probe_ns_per_pkt", ratio(probe, n_enc), "ns");
  r.set("cache.update_ns_per_pkt", ratio(update, n_enc), "ns");
  const double lookups = static_cast<double>(c1.lookups - c0.lookups);
  r.set("cache.hit_ratio", ratio(static_cast<double>(c1.hits - c0.hits), lookups),
        "ratio");
  r.set("cache.stale_hit_ratio",
        ratio(static_cast<double>(c1.stale_hits - c0.stale_hits), lookups), "ratio");
  r.set("cache.fps_purged_per_kpkt",
        1000 * ratio(static_cast<double>(c1.fingerprints_purged -
                                         c0.fingerprints_purged),
                     pkts),
        "1/kpkt");
  r.set("cache.l2_hits_per_kpkt",
        1000 * ratio(static_cast<double>(t1.l2_hits - t0.l2_hits), pkts), "1/kpkt");
  r.set("cache.demotions_per_kpkt",
        1000 * ratio(static_cast<double>(t1.demotions - t0.demotions), pkts),
        "1/kpkt");
  r.set("cache.promotions_per_kpkt",
        1000 * ratio(static_cast<double>(t1.promotions - t0.promotions), pkts),
        "1/kpkt");
  r.set("cache.host_evictions_per_kpkt",
        1000 * ratio(static_cast<double>(t1.host_evictions - t0.host_evictions),
                     pkts),
        "1/kpkt");

  r.set("fec.add_member_ns_per_pkt", ratio(add_member, n_img), "ns");
  r.set("fec.repair_bytes_share",
        ratio(static_cast<double>(f1.repair_bytes - f0.repair_bytes),
              static_cast<double>(wire_bytes)),
        "ratio");
  r.note("ledger: %llu packets replayed, wire/offered %.4f",
         static_cast<unsigned long long>(attempted),
         ratio(static_cast<double>(wire_bytes), static_cast<double>(offered)));
}

}  // namespace perfbench
