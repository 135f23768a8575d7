#include "cache/cache_tier.h"

#include <algorithm>

#include "util/check.h"
#include "util/crc32.h"

namespace bytecache::cache {

CacheTier::CacheTier(const CacheConfig& config, L2Store* l2)
    : l1_(config), config_(config) {
  if (l2 != nullptr) {
    BC_CHECK(l2->config().l2_bytes == config.l2_bytes &&
             l2->config().per_host_pair_bytes == config.per_host_pair_bytes)
        << "CacheTier and its L2Store were built from different configs";
    FingerprintTable& index = l1_.index();
    stripe_ = l2->attach(index);
    // The L1's density (one fingerprint per 16 bytes) over both tiers.
    index.reserve((config.l1_bytes + stripe_->share_bytes()) / 16);
    l1_.set_lower_tier(this);
  }
}

const CachedPacket* CacheTier::lookup(std::uint64_t id) {
  bool enqueue = false;
  const CachedPacket* pkt = stripe_->find(id, enqueue);
  if (enqueue) promote_queue_.push_back(id);
  return pkt;
}

void CacheTier::apply_promotions() {
  for (std::uint64_t id : promote_queue_) {
    // The packet can have left the stripe since the hit (host-budget or
    // share eviction triggered by a later demotion): nothing to promote.
    if (!stripe_->take(id, taken_)) continue;
    l1_.readmit(taken_);
    ++stripe_->stats().promotions;
  }
  promote_queue_.clear();
}

std::uint64_t CacheTier::update(util::BytesView payload,
                                const std::vector<rabin::Anchor>& anchors,
                                const PacketMeta& meta) {
  // Promotions first: the hits happened before this packet arrived, so
  // the promoted entries slot in just below it in recency — and their
  // demotion fallout lands before the fresh insert, keeping the insert's
  // own eviction decisions identical on both sides of the link.
  if (stripe_ != nullptr && !promote_queue_.empty()) apply_promotions();
  journal_update(payload, anchors, meta);
  const std::uint64_t id = l1_.update(payload, anchors, meta);
  // Epoch boundary: enforce the stripe share and free limbo slices —
  // nothing handed out during this packet is referenced past here.
  if (stripe_ != nullptr) stripe_->end_packet();
  return id;
}

void CacheTier::flush() {
  journal_op(kOpFlush, 0);
  l1_.flush();
  if (stripe_ != nullptr) {
    stripe_->clear();
    promote_queue_.clear();
  }
}

bool CacheTier::invalidate(rabin::Fingerprint fp) {
  journal_op(kOpInvalidate, fp);
  if (stripe_ != nullptr) {
    const auto entry = l1_.table().get(fp);
    if (entry && stripe_->invalidate(entry->packet_id)) {
      // Invalidation is control-plane work between packets: no payload
      // pointer from a match loop is live, so the victim's slice need
      // not wait in limbo for the next update()'s epoch boundary.
      stripe_->end_packet();
      return true;
    }
  }
  return l1_.invalidate(fp);
}

void CacheTier::audit() const {
  l1_.audit();
  if (stripe_ != nullptr) stripe_->audit();
  if (!util::kAuditEnabled) return;
  audit_index(l1_.table(), l1_.store(), stripe_);
  if (stripe_ == nullptr) return;
  for (const CachedPacket& p : l1_.store().entries()) {
    BC_AUDIT(!stripe_->contains(p.id))
        << "packet " << p.id << " resident in both tiers";
  }
}

void CacheTier::audit_index(const FingerprintTable& index,
                            const PacketStore& l1,
                            const L2Store::Stripe* l2) {
  if (!util::kAuditEnabled) return;
  // Entries are purged when their packet leaves the cache for good and
  // never move with it between tiers, so none may be stale.
  std::size_t stale = 0;
  index.for_each([&](rabin::Fingerprint fp, const FpEntry& e) {
    const CachedPacket* in_l1 = l1.peek(e.packet_id);
    const CachedPacket* in_l2 = l2 != nullptr ? l2->peek(e.packet_id) : nullptr;
    BC_AUDIT(in_l1 == nullptr || in_l2 == nullptr)
        << "fingerprint " << fp << " names packet " << e.packet_id
        << ", resident in both tiers";
    const CachedPacket* owner = in_l1 != nullptr ? in_l1 : in_l2;
    if (owner == nullptr) {
      ++stale;
      return;
    }
    BC_AUDIT(e.offset < owner->payload.size())
        << "fingerprint " << fp << " starts at " << e.offset << ", past the "
        << owner->payload.size() << "-byte payload of packet " << e.packet_id;
    BC_AUDIT(std::find(owner->fps.begin(), owner->fps.end(), fp) !=
             owner->fps.end())
        << "fingerprint " << fp << " is not recorded on its owner "
        << e.packet_id;
  });
  BC_AUDIT(stale == 0) << stale << " stale fingerprint entries name a "
                       << "packet no tier holds";
  index.audit_owner_counts();
}

std::size_t CacheTier::l2_fingerprint_count() const {
  if (stripe_ == nullptr) return 0;
  std::size_t owned = 0;
  l1_.table().for_each([&](rabin::Fingerprint, const FpEntry& e) {
    if (stripe_->contains(e.packet_id)) ++owned;
  });
  return owned;
}

const TierStats& CacheTier::tier_stats() const {
  static const TierStats kNone{};
  return stripe_ != nullptr ? stripe_->stats() : kNone;
}

// ------------------------------------------------------------ snapshots

void CacheTier::save(SnapshotWriter& w) {
  if (stripe_ == nullptr && config_.snapshot_mode == SnapshotMode::kFull) {
    // Byte-identical to the pre-tier persist format for the default
    // configuration — old snapshots and their goldens stay valid.
    l1_.save(w);
  } else {
    ++seq_;
    w.u32(kSnapMagicTier);
    w.u64(seq_);
    l1_.save(w);
    // Host attribution rides out of band so the embedded flat block
    // stays byte-identical to the legacy format.
    std::uint32_t patched = 0;
    for (const CachedPacket& p : l1_.store().entries()) {
      if (p.meta.host_key != 0) ++patched;
    }
    w.u32(patched);
    for (const CachedPacket& p : l1_.store().entries()) {
      if (p.meta.host_key != 0) {
        w.u64(p.id);
        w.u64(p.meta.host_key);
      }
    }
    w.u8(stripe_ != nullptr ? 1 : 0);
    if (stripe_ != nullptr) stripe_->save(w);
  }
  journal_reset();
  journal_overflow_ = config_.snapshot_mode != SnapshotMode::kIncremental;
}

void CacheTier::save_incremental(SnapshotWriter& w) {
  if (config_.snapshot_mode != SnapshotMode::kIncremental ||
      journal_overflow_) {
    // No usable journal window (kFull mode, overflow, or no boundary
    // yet): emit a full image; load() sniffs the magic either way.
    save(w);
    return;
  }
  w.u32(kSnapMagicIncr);
  w.u64(seq_);  // the state version this delta chains on
  w.u32(journal_ops_);
  w.u32(static_cast<std::uint32_t>(journal_.size()));
  w.bytes(journal_.buffer());
  w.u32(util::crc32(journal_.buffer()));
  ++seq_;
  journal_reset();
}

bool CacheTier::reject(SnapshotReader& r) {
  l1_.flush();
  if (stripe_ != nullptr) stripe_->clear();
  promote_queue_.clear();
  journal_reset();
  journal_overflow_ = true;
  seq_ = 0;
  r.fail();
  return false;
}

bool CacheTier::load(SnapshotReader& r) {
  switch (r.peek_u32()) {
    case kSnapMagicFlat:
      return load_flat(r);
    case kSnapMagicTier:
      return load_tier(r);
    case kSnapMagicIncr:
      return load_incremental(r);
    default:
      return reject(r);
  }
}

bool CacheTier::load_flat(SnapshotReader& r) {
  if (!l1_.load(r)) return reject(r);
  // A flat snapshot is the complete state: whatever the stripe held is
  // gone, and legacy snapshots carry no state version.
  if (stripe_ != nullptr) stripe_->clear();
  promote_queue_.clear();
  seq_ = 0;
  journal_reset();
  journal_overflow_ = config_.snapshot_mode != SnapshotMode::kIncremental;
  return true;
}

bool CacheTier::load_tier(SnapshotReader& r) {
  (void)r.u32();  // magic, already sniffed
  const std::uint64_t seq = r.u64();
  if (!r.ok()) return reject(r);
  if (!l1_.load(r)) return reject(r);
  const std::uint32_t patched = r.u32();
  for (std::uint32_t i = 0; i < patched; ++i) {
    const std::uint64_t id = r.u64();
    const std::uint64_t host_key = r.u64();
    // A patch naming an absent packet cannot come from save().
    if (!r.ok() || !l1_.store().contains(id)) return reject(r);
    l1_.set_host_key(id, host_key);
  }
  const std::uint8_t has_l2 = r.u8();
  if (!r.ok() || has_l2 > 1) return reject(r);
  if (has_l2 != 0) {
    // An L2 image needs a stripe to live in; restoring it into an
    // L2-less tier would silently drop cache contents.
    if (stripe_ == nullptr) return reject(r);
    if (!stripe_->load(r)) return reject(r);
    // The tier is found by id, so ids must be unique across tiers — and
    // stay so, though an L2 resident can hold the newest id.
    for (const CachedPacket& p : l1_.store().entries()) {
      if (stripe_->contains(p.id)) return reject(r);
    }
    l1_.reserve_ids_through(stripe_->max_id());
  } else if (stripe_ != nullptr) {
    stripe_->clear();
  }
  promote_queue_.clear();
  seq_ = seq;
  journal_reset();
  journal_overflow_ = config_.snapshot_mode != SnapshotMode::kIncremental;
  return true;
}

bool CacheTier::load_incremental(SnapshotReader& r) {
  (void)r.u32();  // magic, already sniffed
  const std::uint64_t base = r.u64();
  const std::uint32_t ops = r.u32();
  const std::uint32_t len = r.u32();
  const util::BytesView body = r.bytes(len);
  const std::uint32_t crc = r.u32();
  if (!r.ok()) return reject(r);
  // A delta only applies on the exact state it was journaled against —
  // replaying it anywhere else silently diverges the caches.
  if (base != seq_) return reject(r);
  if (util::crc32(body) != crc) return reject(r);
  replaying_ = true;
  SnapshotReader br(body);
  std::vector<rabin::Anchor> anchors;
  for (std::uint32_t i = 0; i < ops; ++i) {
    const std::uint8_t tag = br.u8();
    switch (tag) {
      case kOpUpdate: {
        PacketMeta meta;
        meta.flow_key = br.u64();
        meta.src_uid = br.u64();
        meta.stream_index = br.u64();
        meta.tcp_seq = br.u32();
        meta.tcp_end_seq = br.u32();
        meta.epoch = br.u32();
        meta.has_tcp_seq = br.u8() != 0;
        meta.host_key = br.u64();
        const std::uint32_t plen = br.u32();
        const util::BytesView payload = br.bytes(plen);
        const std::uint32_t nanchors = br.u32();
        if (!br.ok()) break;
        anchors.clear();
        anchors.reserve(nanchors);
        bool bad = false;
        for (std::uint32_t a = 0; a < nanchors; ++a) {
          rabin::Anchor anch;
          anch.fp = br.u64();
          anch.offset = br.u16();
          if (anch.offset >= plen) bad = true;
          anchors.push_back(anch);
        }
        if (bad) br.fail();
        if (!br.ok()) break;
        // Replays through the normal update path, so the replayed state
        // obeys every tier invariant the live one did.
        update(payload, anchors, meta);
        break;
      }
      case kOpInvalidate:
        invalidate(br.u64());
        break;
      case kOpFlush:
        flush();
        break;
      default:
        br.fail();
        break;
    }
    if (!br.ok()) {
      replaying_ = false;
      return reject(r);
    }
  }
  replaying_ = false;
  if (!br.at_end()) return reject(r);
  promote_queue_.clear();
  seq_ = base + 1;
  journal_reset();
  journal_overflow_ = config_.snapshot_mode != SnapshotMode::kIncremental;
  return true;
}

// -------------------------------------------------------------- journal

void CacheTier::journal_reset() {
  journal_ = SnapshotWriter{};
  journal_ops_ = 0;
}

void CacheTier::journal_update(util::BytesView payload,
                               const std::vector<rabin::Anchor>& anchors,
                               const PacketMeta& meta) {
  if (!journaling() || journal_overflow_) return;
  // An anchor-less update is a no-op in the cache; don't journal it.
  if (anchors.empty()) return;
  journal_.u8(kOpUpdate);
  journal_.u64(meta.flow_key);
  journal_.u64(meta.src_uid);
  journal_.u64(meta.stream_index);
  journal_.u32(meta.tcp_seq);
  journal_.u32(meta.tcp_end_seq);
  journal_.u32(meta.epoch);
  journal_.u8(meta.has_tcp_seq ? 1 : 0);
  journal_.u64(meta.host_key);
  journal_.u32(static_cast<std::uint32_t>(payload.size()));
  journal_.bytes(payload);
  journal_.u32(static_cast<std::uint32_t>(anchors.size()));
  for (const rabin::Anchor& a : anchors) {
    journal_.u64(a.fp);
    journal_.u16(a.offset);
  }
  ++journal_ops_;
  if (journal_.size() > kJournalCapBytes) {
    // Too much history for a useful delta: the next save_incremental()
    // falls back to a full image.  Drop the buffer now.
    journal_overflow_ = true;
    journal_reset();
  }
}

void CacheTier::journal_op(std::uint8_t tag, rabin::Fingerprint fp) {
  if (!journaling() || journal_overflow_) return;
  journal_.u8(tag);
  if (tag == kOpInvalidate) journal_.u64(fp);
  ++journal_ops_;
}

}  // namespace bytecache::cache
