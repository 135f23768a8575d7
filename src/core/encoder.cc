#include "core/encoder.h"

#include <algorithm>

#include "core/anchors.h"
#include "core/cacheable.h"
#include "core/flow.h"
#include "core/matcher.h"
#include "core/wire.h"
#include "packet/tcp.h"
#include "util/check.h"
#include "util/crc32.h"
#include "util/seqcmp.h"

namespace bytecache::core {
namespace {

struct TcpInfo {
  std::uint32_t seq = 0;
  std::uint32_t end_seq = 0;  // seq + data length
  std::uint64_t flow_key = 0;
};

/// TCP data segments carry their sequence range and flow identity;
/// everything else (pure ACKs, UDP, unknown protocols) yields nullopt.
/// The single header parse per packet: everything downstream (policy
/// context, cache meta) reads from this struct.
std::optional<TcpInfo> data_tcp_info(const packet::Packet& pkt) {
  if (pkt.proto() != packet::IpProto::kTcp) return std::nullopt;
  auto h = packet::TcpHeader::parse_unchecked(pkt.payload);
  if (!h) return std::nullopt;
  if (pkt.payload.size() <= packet::TcpHeader::kSize) return std::nullopt;
  TcpInfo info;
  info.seq = h->seq;
  info.end_seq = h->seq + static_cast<std::uint32_t>(
                              pkt.payload.size() - packet::TcpHeader::kSize);
  info.flow_key = flow_key_of(pkt.ip.src, pkt.ip.dst, h->src_port,
                              h->dst_port);
  return info;
}

}  // namespace

Encoder::Encoder(const DreParams& params,
                 std::unique_ptr<EncodingPolicy> policy,
                 const cache::CacheConfig& cache, cache::L2Store* l2)
    : params_(params),
      tables_(params.window, params.poly),
      policy_(std::move(policy)),
      cache_(cache, l2),
      repair_enc_(params.repair) {
  if (params_.coded_repair) {
    loss_ = std::make_unique<resilience::PerceivedLossEstimator>();
  }
}

void Encoder::sync_loss_clock() {
  if (loss_ != nullptr) loss_->set_clock(repair_enc_.stats().generations);
}

void Encoder::on_channel_drop(std::uint64_t host_key) {
  if (loss_ == nullptr) return;
  loss_->on_channel_drop(host_key);
  repair_enc_.note_loss();
}

void Encoder::on_loss_report(std::uint64_t host_key, std::uint32_t count) {
  if (loss_ == nullptr) return;
  loss_->on_undecodable(host_key, count);
  repair_enc_.note_loss();
}

std::span<const util::Bytes> Encoder::close_repair_generation() {
  repair_enc_.begin_packet();
  repair_enc_.close_generation();
  sync_loss_clock();
  return repair_enc_.emitted();
}

void Encoder::flush() {
  cache_.flush();
  ++epoch_;
  epoch_bumped_ = true;
}

void Encoder::flush_counted() {
  flush();
  ++stats_.flushes;
}

void Encoder::set_policy(std::unique_ptr<EncodingPolicy> policy) {
  BC_CHECK(policy != nullptr) << "set_policy(nullptr): a running encoder "
                                 "cannot switch to no policy";
  // Flush before swapping: references the old policy admitted must not
  // straddle the rule change (and the epoch bump tells v2 decoders).
  flush();
  ++stats_.flushes;
  policy_ = std::move(policy);
}

void Encoder::audit() const {
  if (!util::kAuditEnabled) return;
  cache_.audit();
  for (const cache::CachedPacket& p : cache_.store().entries()) {
    BC_AUDIT(p.meta.stream_index < stream_index_)
        << "stored packet id " << p.id << " has stream index "
        << p.meta.stream_index << " but the encoder is only at "
        << stream_index_;
  }
  BC_AUDIT(stats_.data_packets <= stats_.packets)
      << stats_.data_packets << " data packets out of " << stats_.packets;
  BC_AUDIT(stats_.encoded_packets <= stats_.data_packets)
      << stats_.encoded_packets << " encoded out of " << stats_.data_packets
      << " data packets";
  // Coded repair trades bytes for resilience: the always-on v3 wrap can
  // inflate a stream with no redundancy, so the non-inflation invariant
  // only holds for the pure-compression configurations.
  BC_AUDIT(params_.coded_repair || stats_.bytes_out <= stats_.bytes_in)
      << "encoding inflated the stream: " << stats_.bytes_out
      << " bytes out > " << stats_.bytes_in << " bytes in";
  repair_enc_.audit();
  if (loss_ != nullptr) loss_->audit();
  BC_AUDIT(stats_.encoded_packets <= stats_.dependency_links)
      << "every encoded packet references at least one cached packet, but "
      << stats_.encoded_packets << " encoded > "
      << stats_.dependency_links << " dependency links";
  BC_AUDIT(stats_.nack_invalidations <= stats_.nacks_received)
      << stats_.nack_invalidations << " invalidations from "
      << stats_.nacks_received << " NACKs";
  BC_AUDIT(stats_.resyncs_honored <= stats_.resync_requests)
      << stats_.resyncs_honored << " honored resyncs from "
      << stats_.resync_requests << " requests";
  BC_AUDIT(stats_.resyncs_honored <= stats_.flushes)
      << stats_.resyncs_honored << " resync flushes but only "
      << stats_.flushes << " flushes total";
}

void Encoder::on_nack(rabin::Fingerprint fp) {
  ++stats_.nacks_received;
  if (cache_.invalidate(fp)) ++stats_.nack_invalidations;
}

void Encoder::on_resync_request(std::uint16_t decoder_epoch) {
  ++stats_.resync_requests;
  if (decoder_epoch != epoch_) return;
  flush();
  ++stats_.flushes;
  ++stats_.resyncs_honored;
}

void Encoder::on_reverse_ack(std::uint64_t flow_key, std::uint32_t ack) {
  flows_.upsert(flow_key).observe_ack(ack);
}

void Encoder::identify_regions(util::BytesView payload,
                               const PacketContext& ctx, bool allow_encode,
                               EncodeInfo& info) {
  // ---- Redundancy identification and elimination (Fig. 2 procedure B) ----
  // Regions are built directly into the reusable encoded-form scratch.
  std::vector<rabin::Anchor>& anchors = anchor_ws_.anchors;
  std::vector<EncodedRegion>& regions = enc_.regions;
  regions.clear();
  std::vector<std::uint64_t>& dep_ids = dep_ids_;  // store ids, deduplicated
  dep_ids.clear();
  // With anchor reuse (core/anchors.h) the payload is scanned in short
  // chunks: a region reaching past the scanned part takes its interior
  // anchors from its source and the scan resumes at its last w-1 window
  // starts.  A chunk without such a region hands the rest of the payload
  // to one scan.  Otherwise the whole payload is scanned up front.
  const bool reuse = allow_encode && anchors_reusable(params_);
  const std::size_t w = params_.window;
  const std::size_t starts = payload.size() - w + 1;  // size >= w here
  std::size_t scanned = 0;  // window starts [0, scanned) are in `anchors`
  if (reuse) {
    anchors.clear();
    anchors.reserve((payload.size() >> params_.select_bits) + 8);
  } else {
    compute_anchors(tables_, payload, params_, anchor_ws_);
    scanned = starts;
  }
  bool chunked = reuse;  // scan the next stretch as one short chunk
  bool reused = false;
  std::size_t next = 0;         // next anchor to match
  std::size_t probed_from = 0;  // probe_ws_[i] is anchors[probed_from + i]
  std::size_t probed_to = 0;    // ... up to here
  std::size_t cursor = 0;       // end of the last emitted region
  while (allow_encode) {
    if (next == anchors.size()) {
      if (scanned == starts) break;
      const std::size_t end =
          chunked ? std::min(scanned + kReuseChunk, starts) : starts;
      scan_anchors(tables_, payload, scanned, end, params_, anchor_ws_);
      scanned = end;
      chunked = false;
      continue;
    }
    if (next == probed_to) {
      // Probe the fresh anchors' fingerprints up front with slot prefetch
      // (cache/fingerprint_table.h): the table slots stream in while the
      // loop works, instead of one serialized miss per anchor.  The
      // probes are side-effect free; resolve() replays find()'s exact
      // statistics/stale-erase sequence per anchor, in loop order, so the
      // batched form is observably identical to per-anchor find().
      cache_.probe_batch(std::span(anchors).subspan(next), probe_ws_);
      probed_from = next;
      probed_to = anchors.size();
    }
    const std::size_t ai = next++;
    const rabin::Anchor a = anchors[ai];
    if (a.offset < cursor) continue;  // inside an already-encoded area
    auto hit = cache_.resolve(a.fp, probe_ws_[ai - probed_from]);
    if (!hit) continue;
    const cache::CachedPacket& src = *hit->packet;
    if (!policy_->admit(ctx, src.meta)) continue;
    if (params_.ack_gated) {
      // Only reference segments the peer has cumulatively ACKed — such
      // segments passed the decoder and are provably in its cache.
      const cache::PacketMeta& m = src.meta;
      const FlowState* flow = m.has_tcp_seq ? flows_.find(m.flow_key)
                                            : nullptr;
      if (flow == nullptr || !flow->has_highest_ack ||
          !util::seq_le(m.tcp_end_seq, flow->highest_ack)) {
        ++stats_.ack_gate_rejections;
        continue;
      }
    }
    auto m = expand_match(payload, a.offset, src.payload, hit->offset, w,
                          cursor);
    if (!m) continue;  // fingerprint collision
    if (m->length <= params_.min_region) continue;
    regions.push_back(EncodedRegion{
        a.fp, static_cast<std::uint16_t>(m->new_begin),
        static_cast<std::uint16_t>(m->stored_begin),
        static_cast<std::uint16_t>(m->length)});
    cursor = m->new_begin + m->length;
    if (std::find(dep_ids.begin(), dep_ids.end(), src.id) == dep_ids.end()) {
      dep_ids.push_back(src.id);
      info.deps.push_back(src.meta.src_uid);
    }
    if (regions.size() == 255) break;  // shim region_count is u8
    if (reuse && cursor - w + 1 > scanned) {
      // Windows starting in (a.offset, cursor - w] lie inside the copy:
      // drop the ones already scanned and take them all from the source.
      const std::size_t first = std::size_t{a.offset} + 1;
      anchors.resize(next);
      src.copy_anchors(m->stored_begin + first - m->new_begin,
                       m->stored_begin + cursor - w - m->new_begin, first,
                       anchors);
      next = probed_to = anchors.size();
      scanned = cursor - w + 1;
      chunked = true;
      reused = true;
    }
  }
  if (scanned < starts) {
    scan_anchors(tables_, payload, scanned, starts, params_, anchor_ws_);
  }
  if (reused) {
    audit_reused_anchors(tables_, payload, params_, anchors, audit_ws_);
  }
}

EncodeInfo Encoder::process(packet::Packet& pkt) {
  EncodeInfo info;
  info.uid = pkt.uid;
  info.original_size = pkt.payload.size();
  info.sent_size = pkt.payload.size();
  ++stats_.packets;
  if (params_.coded_repair) repair_enc_.begin_packet();

  // Packets too small to hold a window, without transport data, or too
  // large for the 16-bit offsets are forwarded untouched and uncached —
  // the rule the decoder applies too (core/cacheable.h).
  if (!cacheable_payload(pkt, params_.window)) return info;
  const auto tcp = data_tcp_info(pkt);
  info.data_packet = true;
  ++stats_.data_packets;
  stats_.bytes_in += pkt.payload.size();

  PacketContext ctx;
  if (tcp) {
    ctx.tcp_seq = tcp->seq;
    ctx.flow_key = tcp->flow_key;
    ctx.retransmission = flows_.upsert(tcp->flow_key).observe_seq(tcp->seq);
  }
  ctx.host_key = host_key_of(pkt.ip.src, pkt.ip.dst);
  ctx.stream_index = stream_index_++;
  ctx.payload_size = pkt.payload.size();
  // The host pair's loss record, this packet counted as offered; null
  // without a loss table.
  resilience::FlowLossState* path =
      loss_ != nullptr ? &loss_->on_offered(ctx.host_key) : nullptr;

  const PolicyDecision decision = policy_->before_encode(ctx);
  if (decision.is_retransmission) {
    info.retransmission = true;
    ++stats_.retransmissions;
    if (path != nullptr) {
      loss_->on_retransmission(*path);
      repair_enc_.note_loss();
    }
  }
  if (decision.flush_cache) {
    flush();
    info.flushed = true;
    ++stats_.flushes;
  }
  if (decision.is_reference) {
    info.reference = true;
    ++stats_.references;
  }

  // Coded repair covers exactly the packets that touch the caches: every
  // data packet.  A retransmission closes the open generation first (the
  // loss it implies is precisely when buffered repairs help, and it
  // doubles as a tail-loss timer).
  if (params_.coded_repair && decision.is_retransmission) {
    repair_enc_.close_generation();
    sync_loss_clock();
  }

  const util::BytesView payload(pkt.payload);
  identify_regions(payload, ctx, decision.allow_encode, info);
  const std::vector<rabin::Anchor>& anchors = anchor_ws_.anchors;
  std::vector<EncodedRegion>& regions = enc_.regions;

  // ---- Cache update (Fig. 2 procedure C), always over the original ----
  cache::PacketMeta meta;
  meta.has_tcp_seq = tcp.has_value();
  meta.tcp_seq = tcp ? tcp->seq : 0;
  meta.tcp_end_seq = tcp ? tcp->end_seq : 0;
  meta.flow_key = ctx.flow_key;
  meta.stream_index = ctx.stream_index;
  meta.epoch = epoch_;
  meta.src_uid = pkt.uid;
  meta.host_key = ctx.host_key;
  cache_.update(payload, anchors, meta);

  // ---- Substitute ----
  if (params_.coded_repair) {
    // Every data packet is wrapped in the v3 shim so it carries a
    // generation tag — the decoder-side reorder/repair machinery needs
    // the complete cache-touching stream sequenced, not just the packets
    // that happened to compress.  Of the two encodings (regions + the
    // literal gaps vs one plain literal run), the smaller wins.
    EncodedPayload& enc = enc_;  // regions already built in place above
    enc.version = kWireVersion3;
    enc.orig_proto = pkt.ip.protocol;
    enc.flags = epoch_bumped_ ? kFlagFlushEpoch : 0;
    enc.epoch = epoch_;
    enc.orig_len = static_cast<std::uint16_t>(pkt.payload.size());
    enc.crc = util::crc32(payload);
    enc.literals.clear();
    if (!regions.empty()) {
      std::size_t pos = 0;
      for (const EncodedRegion& r : regions) {
        enc.literals.insert(enc.literals.end(), pkt.payload.begin() + pos,
                            pkt.payload.begin() + r.offset_new);
        pos = static_cast<std::size_t>(r.offset_new) + r.length;
      }
      enc.literals.insert(enc.literals.end(), pkt.payload.begin() + pos,
                          pkt.payload.end());
      if (enc.wire_size() >= kShimBytesV3 + pkt.payload.size()) {
        regions.clear();
        info.deps.clear();
        enc.literals.assign(pkt.payload.begin(), pkt.payload.end());
      }
    } else {
      enc.literals.assign(pkt.payload.begin(), pkt.payload.end());
    }
    const fec::RepairEncoder::Tag tag = repair_enc_.next_tag();
    enc.gen_id = tag.gen_id;
    enc.gen_seq = tag.gen_seq;
    enc.serialize_into(wire_);
    pkt.payload.swap(wire_);
    pkt.ip.protocol = static_cast<std::uint8_t>(packet::IpProto::kDre);
    pkt.ip.total_length = static_cast<std::uint16_t>(
        packet::Ipv4Header::kSize + pkt.payload.size());
    info.sent_size = pkt.payload.size();
    epoch_bumped_ = false;
    if (!regions.empty()) {
      info.encoded = true;
      info.regions = regions.size();
      ++stats_.encoded_packets;
      stats_.regions += regions.size();
      stats_.dependency_links += info.deps.size();
    }
    // Record the finished wire image as this generation's tagged member,
    // with its path's loss record (coded repair always keeps the table);
    // reaching G members closes the generation and emits its repairs.
    packet::to_wire_into(pkt, fec_wire_);
    repair_enc_.add_member(fec_wire_,
                           fec::MemberLoss{path->recent_loss(),
                                           loss_->since_loss(*path)});
    sync_loss_clock();
  } else if (!regions.empty()) {
    // Pure-compression path: substitute only if it shrinks the packet.
    EncodedPayload& enc = enc_;
    enc.version = params_.epoch_resync ? kWireVersion2 : 1;
    enc.orig_proto = pkt.ip.protocol;
    enc.flags = epoch_bumped_ ? kFlagFlushEpoch : 0;
    enc.epoch = epoch_;
    enc.orig_len = static_cast<std::uint16_t>(pkt.payload.size());
    enc.crc = util::crc32(payload);
    enc.literals.clear();
    std::size_t pos = 0;
    for (const EncodedRegion& r : regions) {
      enc.literals.insert(enc.literals.end(), pkt.payload.begin() + pos,
                          pkt.payload.begin() + r.offset_new);
      pos = static_cast<std::size_t>(r.offset_new) + r.length;
    }
    enc.literals.insert(enc.literals.end(), pkt.payload.begin() + pos,
                        pkt.payload.end());
    if (enc.wire_size() < pkt.payload.size()) {
      enc.serialize_into(wire_);
      pkt.payload.swap(wire_);
      pkt.ip.protocol = static_cast<std::uint8_t>(packet::IpProto::kDre);
      pkt.ip.total_length = static_cast<std::uint16_t>(
          packet::Ipv4Header::kSize + pkt.payload.size());
      info.encoded = true;
      info.regions = regions.size();
      info.sent_size = pkt.payload.size();
      epoch_bumped_ = false;
      ++stats_.encoded_packets;
      stats_.regions += regions.size();
      stats_.dependency_links += info.deps.size();
    } else {
      info.deps.clear();
    }
  }

  if (params_.coded_repair) info.repairs = repair_enc_.emitted();
  stats_.bytes_out += info.sent_size;
  return info;
}

}  // namespace bytecache::core
