#include "core/decoder.h"

#include "core/anchors.h"
#include "core/cacheable.h"
#include "core/flow.h"
#include "core/wire.h"
#include "util/check.h"
#include "util/crc32.h"

namespace bytecache::core {
namespace {

/// Drops that indicate the caches may be out of step (as opposed to a
/// malformed or corrupted packet that happens to parse) — these feed the
/// resync synchronizer.  CRC mismatches are included because a desync via
/// fingerprint aliasing (the entry exists but holds different bytes)
/// manifests exactly as a CRC failure.
constexpr bool is_desync_drop(DecodeStatus s) {
  return s == DecodeStatus::kMissingFingerprint ||
         s == DecodeStatus::kStaleReference ||
         s == DecodeStatus::kCrcMismatch;
}

}  // namespace

Decoder::Decoder(const DreParams& params, const cache::CacheConfig& cache,
                 cache::L2Store* l2)
    : params_(params),
      tables_(params.window, params.poly),
      cache_(cache, l2),
      sync_(params.epoch_sync) {}

void Decoder::flush() { cache_.flush(); }

void Decoder::audit() const {
  if (!util::kAuditEnabled) return;
  // Includes the "no entry references an id never stored" check via the
  // fingerprint-table audit against the store's id horizon.
  cache_.audit();
  for (const cache::CachedPacket& p : cache_.store().entries()) {
    BC_AUDIT(p.meta.stream_index < stream_index_)
        << "stored packet id " << p.id << " has stream index "
        << p.meta.stream_index << " but the decoder is only at "
        << stream_index_;
    BC_AUDIT(p.meta.epoch <= 0xFFFF)
        << "stored packet id " << p.id << " carries epoch " << p.meta.epoch
        << " outside the 16-bit wire range";
  }
  BC_AUDIT(stats_.passthrough + stats_.decoded + stats_.drops() ==
           stats_.packets)
      << "outcome counters (" << stats_.passthrough << " passthrough + "
      << stats_.decoded << " decoded + " << stats_.drops()
      << " drops) do not partition " << stats_.packets << " packets";
  BC_AUDIT(epoch_locked_ || epoch_ == 0)
      << "epoch " << epoch_ << " set without a v2 packet having been seen";
  sync_.audit();
}

void Decoder::forget_peer() {
  // Everything cached here predates the encoder's restart, so none of
  // it can be referenced legitimately.  The next verified packet sets
  // the epoch; until the encoder flushes, its references into packets
  // dropped here miss and ask for that flush.
  cache_.flush();
  epoch_ = 0;
  epoch_locked_ = false;
  stale_run_ = 0;
  sync_.on_epoch_adopted();
}

void Decoder::cache_update(const packet::Packet& pkt,
                           std::span<const EncodedRegion> regions) {
  if (!cacheable_payload(pkt, params_.window)) return;
  const util::BytesView payload(pkt.payload);
  const std::vector<rabin::Anchor>& anchors = anchors_of(payload, regions);
  cache::PacketMeta meta;
  meta.stream_index = stream_index_++;
  meta.epoch = epoch_;
  meta.host_key = host_key_of(pkt.ip.src, pkt.ip.dst);
  cache_.update(payload, anchors, meta);
}

const std::vector<rabin::Anchor>& Decoder::anchors_of(
    util::BytesView payload, std::span<const EncodedRegion> regions) {
  if (regions.empty() || !anchors_reusable(params_)) {
    return compute_anchors(tables_, payload, params_, anchor_ws_);
  }
  // Anchor reuse (core/anchors.h): a region copied from a cached
  // source takes its interior window starts [nb, nb + len - w] from the
  // source's list; the gaps between — literals plus the w-1 seam windows
  // straddling each region edge — are scanned.
  std::vector<rabin::Anchor>& anchors = anchor_ws_.anchors;
  anchors.clear();
  anchors.reserve((payload.size() >> params_.select_bits) + 8);
  const std::size_t w = params_.window;
  std::size_t scanned = 0;  // window starts [0, scanned) are in `anchors`
  bool reused = false;
  for (std::size_t ri = 0; ri < regions.size(); ++ri) {
    const EncodedRegion& r = regions[ri];
    if (r.length < w) continue;  // gap-scanned
    const cache::CachedPacket& src = *sources_[ri];
    scan_anchors(tables_, payload, scanned, r.offset_new, params_,
                 anchor_ws_);
    src.copy_anchors(r.offset_stored,
                     std::size_t{r.offset_stored} + r.length - w,
                     r.offset_new, anchors);
    scanned = static_cast<std::size_t>(r.offset_new) + r.length - w + 1;
    reused = true;
  }
  scan_anchors(tables_, payload, scanned, payload.size() - w + 1, params_,
               anchor_ws_);
  if (reused) {
    audit_reused_anchors(tables_, payload, params_, anchors, audit_ws_);
  }
  return anchors;
}

DecodeInfo Decoder::process(packet::Packet& pkt) {
  ++stats_.packets;
  stats_.bytes_received += pkt.payload.size();
  if (pkt.proto() != packet::IpProto::kDre) {
    DecodeInfo info;
    info.status = DecodeStatus::kPassthrough;
    info.received_size = pkt.payload.size();
    info.restored_size = pkt.payload.size();
    cache_update(pkt, {});
    ++stats_.passthrough;
    stats_.bytes_restored += pkt.payload.size();
    return info;
  }
  DecodeInfo info = process_encoded(pkt);
  switch (info.status) {
    case DecodeStatus::kDecoded:
      ++stats_.decoded;
      stats_.bytes_restored += info.restored_size;
      break;
    case DecodeStatus::kMalformedShim:
      ++stats_.drops_malformed;
      break;
    case DecodeStatus::kMissingFingerprint:
      ++stats_.drops_missing_fp;
      break;
    case DecodeStatus::kBadRegionBounds:
      ++stats_.drops_bad_bounds;
      break;
    case DecodeStatus::kCrcMismatch:
      ++stats_.drops_crc;
      break;
    case DecodeStatus::kStaleEpoch:
      ++stats_.drops_stale_epoch;
      break;
    case DecodeStatus::kStaleReference:
      ++stats_.drops_stale_ref;
      break;
    case DecodeStatus::kPassthrough:
      break;  // unreachable
  }
  if (info.status == DecodeStatus::kDecoded) {
    sync_.on_progress();
    stale_run_ = 0;
  } else if (params_.epoch_resync &&
             info.status == DecodeStatus::kStaleEpoch) {
    // A reordered leftover of a pre-flush encoding arrives alone; a run
    // of stale-epoch drops with no decode between them is an encoder
    // that restarted cold at epoch 0, behind the adopted one.
    if (++stale_run_ >= params_.epoch_sync.resync_after) forget_peer();
  } else if (params_.epoch_resync && is_desync_drop(info.status)) {
    if (sync_.on_undecodable(info.epoch)) {
      info.resync = true;
      // Ask with the *failing packet's* epoch, not the adopted one: the
      // encoder honors a request naming its current epoch, and the
      // packet it just sent carries exactly that — whereas the adopted
      // epoch lags during the very desyncs this recovers from (e.g. a
      // decoder restarted cold while the encoder is epochs ahead).
      info.resync_epoch = info.epoch;
      ++stats_.resync_signals;
    }
  }
  return info;
}

DecodeInfo Decoder::process_encoded(packet::Packet& pkt) {
  DecodeInfo info;
  info.received_size = pkt.payload.size();

  const EncodedPayload& enc = enc_;
  if (!EncodedPayload::parse_into(pkt.payload, enc_)) {
    info.status = DecodeStatus::kMalformedShim;
    return info;
  }
  info.regions = enc.regions.size();
  info.version = enc.version;
  info.epoch = enc.epoch;

  if (enc.version >= kWireVersion2 && epoch_locked_ &&
      resilience::epoch_newer(epoch_, enc.epoch)) {
    // Behind the adopted epoch: a reordered or long-delayed leftover of a
    // pre-flush encoding.  Its references are meaningless now.  (A packet
    // *ahead* of the adopted epoch is decoded normally — the grace window
    // below admits its references — and its epoch is adopted only if the
    // CRC proves the packet authentic, so a corrupted epoch field cannot
    // poison the adopted state.)
    info.status = DecodeStatus::kStaleEpoch;
    return info;
  }

  util::Bytes& out = reassembly_;
  out.clear();
  out.reserve(enc.orig_len);
  sources_.clear();
  std::size_t lit = 0;  // cursor into literals
  std::size_t pos = 0;  // cursor into the reconstruction
  for (std::size_t ri = 0; ri < enc.regions.size(); ++ri) {
    const EncodedRegion& r = enc.regions[ri];
    // Pull the *next* region's fingerprint-table slot while this region's
    // literal copy and payload splice do useful work over it.
    if (ri + 1 < enc.regions.size()) cache_.prefetch(enc.regions[ri + 1].fp);
    // Literal gap before the region.
    const std::size_t gap = r.offset_new - pos;
    out.insert(out.end(), enc.literals.begin() + lit,
               enc.literals.begin() + lit + gap);
    lit += gap;
    pos += gap;
    // The region itself, from the cache.
    auto hit = cache_.find(r.fp);
    if (!hit) {
      info.status = DecodeStatus::kMissingFingerprint;
      info.missing_fp = r.fp;
      return info;
    }
    if (enc.version >= kWireVersion2 && epoch_locked_) {
      // Reject references into entries cached two or more adopted flushes
      // ago: each adoption proves the encoder flushed, so an entry still
      // stamped >= 2 epochs behind predates a flush the encoder no longer
      // remembers — using it would be a silent-corruption gamble.  The
      // staleness is measured against the *adopted* (CRC-verified) epoch,
      // never the packet's own claim: entries the decoder cached between
      // an encoder flush and our adoption of it carry a lagging stamp at
      // distance <= 1, and packets running ahead of the adopted epoch
      // (multi-flush bursts we have not verified yet) must stay decodable
      // or adoption could never catch up.  The CRC backstops both graces.
      const std::uint16_t entry_epoch =
          static_cast<std::uint16_t>(hit->packet->meta.epoch);
      if (resilience::epoch_newer(epoch_, entry_epoch) &&
          resilience::epoch_distance(epoch_, entry_epoch) > 1) {
        info.status = DecodeStatus::kStaleReference;
        info.missing_fp = r.fp;
        return info;
      }
    }
    const cache::PayloadView stored = hit->packet->payload;
    if (static_cast<std::size_t>(r.offset_stored) + r.length > stored.size()) {
      info.status = DecodeStatus::kBadRegionBounds;
      return info;
    }
    out.insert(out.end(), stored.begin() + r.offset_stored,
               stored.begin() + r.offset_stored + r.length);
    pos += r.length;
    sources_.push_back(hit->packet);
  }
  out.insert(out.end(), enc.literals.begin() + lit, enc.literals.end());

  if (util::crc32(out) != enc.crc) {
    info.status = DecodeStatus::kCrcMismatch;
    return info;
  }

  if (enc.version >= kWireVersion2 &&
      (!epoch_locked_ || resilience::epoch_newer(enc.epoch, epoch_))) {
    // First verified v2 packet, or the encoder flushed: adopt.  Done
    // before the cache update below so the reconstruction is stamped
    // with the new epoch; entries already cached keep their old stamps
    // and age out of referenceability.  Jumps beyond the plausibility
    // window are NOT adopted (the payload was still delivered — the CRC
    // held — but an in-flight bit flip in the epoch field also survives
    // the CRC, which only covers the original payload; bounding the jump
    // keeps one such flip from poisoning the adopted state and stale-
    // dropping all legitimate traffic until the encoder catches up).
    if (!epoch_locked_ || resilience::epoch_distance(enc.epoch, epoch_) <=
                              params_.epoch_sync.adopt_window) {
      if (epoch_locked_) ++stats_.epoch_adoptions;
      epoch_ = enc.epoch;
      epoch_locked_ = true;
      sync_.on_epoch_adopted();
    } else {
      ++stats_.epoch_rejections;
    }
  }

  pkt.payload.swap(out);
  pkt.ip.protocol = enc.orig_proto;
  pkt.ip.total_length = static_cast<std::uint16_t>(
      packet::Ipv4Header::kSize + pkt.payload.size());
  info.status = DecodeStatus::kDecoded;
  info.restored_size = pkt.payload.size();
  cache_update(pkt, enc.regions);
  return info;
}

}  // namespace bytecache::core
