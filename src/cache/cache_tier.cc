#include "cache/cache_tier.h"

#include <algorithm>

#include "util/check.h"

namespace bytecache::cache {

CacheTier::CacheTier(const CacheConfig& config, L2Store* l2)
    : store_(config), config_(config) {
  store_.set_evict_listener(this);
  if (config.l1_bytes > 0) {
    // Pre-sized at kBytesPerAnchor so steady state never rehashes.
    table_.reserve(config.l1_bytes / kBytesPerAnchor);
  }
  if (l2 != nullptr) {
    BC_CHECK(l2->config().l2_bytes == config.l2_bytes &&
             l2->config().per_host_pair_bytes == config.per_host_pair_bytes)
        << "CacheTier and its L2Store were built from different configs";
    stripe_ = l2->attach(table_);
    // The L1's density over both tiers.
    table_.reserve((config.l1_bytes + stripe_->share_bytes()) /
                   kBytesPerAnchor);
  }
}

void CacheTier::on_evict(const CachedPacket& pkt, EvictReason reason) {
  // A packet owning no entries can never be hit again (lookups start at
  // the index), so it is not worth L2 bytes — and has nothing to purge
  // either.  The table's owner count answers without walking `fps`.
  if (table_.owned(pkt.id) == 0) return;
  // Budget victims are still warm: offer them to the stripe, whose
  // admission keeps their entries in place.  Never a NACKed packet: that
  // must die everywhere.
  if (reason == EvictReason::kBudget && stripe_ != nullptr &&
      stripe_->admit(pkt)) {
    return;
  }
  // Purge only entries still owned by the departing packet: a newer
  // payload may have overwritten some of them, and those must survive.
  stats_.fingerprints_purged += table_.purge(pkt.id, pkt.fps);
}

void CacheTier::apply_promotions() {
  for (std::uint64_t id : promote_queue_) {
    // The packet can have left the stripe since the hit (host-budget or
    // share eviction triggered by a later demotion): nothing to promote.
    if (!stripe_->take(id, taken_)) continue;
    // Back at the MRU end under its original id and anchor list; its
    // index entries never left.  May demote LRU entries.  Statistics are
    // not touched: promotion is tier bookkeeping, not a paper cache event.
    store_.reinsert(taken_);
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
  std::uint64_t id = 0;
  if (!anchors.empty()) {
    id = store_.insert(payload, meta, anchors);
    table_.put_anchors(id, anchors);
    ++stats_.packets_inserted;
    stats_.fingerprints_inserted += anchors.size();
  }
  // Epoch boundary: enforce the stripe share and free limbo slices —
  // nothing handed out during this packet is referenced past here.
  if (stripe_ != nullptr) stripe_->end_packet();
  return id;
}

std::optional<CacheHit> CacheTier::find(rabin::Fingerprint fp) {
  ++stats_.lookups;
  const auto entry = table_.get(fp);
  if (!entry) return std::nullopt;
  return hit(fp, *entry);
}

void CacheTier::probe_batch(std::span<const rabin::Anchor> anchors,
                            std::vector<ProbeResult>& out) const {
  out.resize(anchors.size());
  table_.probe_batch(anchors, out);
}

std::optional<CacheHit> CacheTier::resolve(rabin::Fingerprint fp,
                                           const ProbeResult& probe) {
  // Mirrors find() step for step; the probe replaces only the table get.
  ++stats_.lookups;
  if (!probe.found) return std::nullopt;
  return hit(fp, probe.entry);
}

std::optional<CacheHit> CacheTier::hit(rabin::Fingerprint fp,
                                       const FpEntry& entry) {
  if (const CachedPacket* pkt = store_.lookup(entry.packet_id)) {
    ++stats_.hits;
    return CacheHit{pkt, entry.offset};
  }
  if (stripe_ != nullptr) {
    bool enqueue = false;
    if (const CachedPacket* pkt = stripe_->find(entry.packet_id, enqueue)) {
      if (enqueue) promote_queue_.push_back(entry.packet_id);
      return CacheHit{pkt, entry.offset};
    }
  }
  // Unreachable while the eviction purge holds (see audit_index), but
  // kept: a stale entry must never serve a hit.  (If the same stale
  // fingerprint was probed twice in one batch, the second erase is a
  // no-op and stale_hits counts it again — find() would have counted a
  // plain miss — an observable difference only on this
  // purge-already-failed path.)
  table_.erase(fp);
  ++stats_.stale_hits;
  return std::nullopt;
}

void CacheTier::clear_l1() {
  store_.clear();
  table_.clear();
  ++stats_.flushes;
}

void CacheTier::flush() {
  clear_l1();
  if (stripe_ != nullptr) stripe_->clear();
  promote_queue_.clear();
}

bool CacheTier::invalidate(rabin::Fingerprint fp) {
  const auto entry = table_.get(fp);
  if (!entry) return false;
  if (stripe_ != nullptr && stripe_->invalidate(entry->packet_id)) {
    // Invalidation is control-plane work between packets: no payload
    // pointer from a match loop is live, so the victim's slice need
    // not wait in limbo for the next update()'s epoch boundary.
    stripe_->end_packet();
    return true;
  }
  store_.erase(entry->packet_id);  // eviction hook purges fp and siblings
  table_.erase(fp);                // no-op if the hook already removed it
  return true;
}

void CacheTier::audit() const {
  if (!util::kAuditEnabled) return;
  store_.audit();
  // Entries of L2 residents count as stale here; audit_index holds every
  // entry to resolving in exactly one tier.
  (void)table_.audit(store_);
  // (Snapshot restore bypasses the counters, so only intra-stat relations
  // can be asserted here, not stats against store contents.)
  BC_AUDIT(stats_.hits + stats_.stale_hits <= stats_.lookups)
      << "hits " << stats_.hits << " + stale " << stats_.stale_hits
      << " exceed lookups " << stats_.lookups;
  if (stripe_ != nullptr) stripe_->audit();
  audit_index(table_, store_, stripe_);
  if (stripe_ == nullptr) return;
  for (const CachedPacket& p : store_.entries()) {
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

std::size_t CacheTier::owned_entries(bool in_l2) const {
  if (stripe_ == nullptr) return in_l2 ? 0 : table_.size();
  std::size_t owned = 0;
  table_.for_each([&](rabin::Fingerprint, const FpEntry& e) {
    if (in_l2 ? stripe_->contains(e.packet_id)
              : store_.contains(e.packet_id)) {
      ++owned;
    }
  });
  return owned;
}

const TierStats& CacheTier::tier_stats() const {
  static const TierStats kNone{};
  return stripe_ != nullptr ? stripe_->stats() : kNone;
}

// ------------------------------------------------------------ snapshots

void CacheTier::save_l1(SnapshotWriter& w) const {
  w.u32(kSnapMagicFlat);
  w.u32(static_cast<std::uint32_t>(store_.size()));
  for (const CachedPacket& p : store_.entries()) {
    w.u64(p.id);
    write_meta(w, p.meta, MetaFields::kBase);
    w.u32(static_cast<std::uint32_t>(p.payload.size()));
    w.bytes(p.payload);
  }
  // With a stripe attached the index also holds its residents' entries;
  // those travel in the stripe's own block.  One pass over the index:
  // the count goes in once the records are out.
  const std::size_t count_at = w.u32_placeholder();
  std::uint32_t written = 0;
  table_.for_each([&](rabin::Fingerprint fp, const FpEntry& entry) {
    if (stripe_ != nullptr && !store_.contains(entry.packet_id)) return;
    w.u64(fp);
    w.u64(entry.packet_id);
    w.u16(entry.offset);
    ++written;
  });
  w.patch_u32(count_at, written);
}

bool CacheTier::load_l1(SnapshotReader& r) {
  clear_l1();
  if (r.u32() != kSnapMagicFlat || !r.ok()) return false;
  const std::uint32_t packets = r.u32();
  for (std::uint32_t i = 0; i < packets; ++i) {
    const std::uint64_t id = r.u64();
    const PacketMeta meta = read_meta(r, MetaFields::kBase);
    const std::uint32_t len = r.u32();
    const util::BytesView payload = r.bytes(len);
    // PacketStore::restore trusts its input: a zero or duplicate id would
    // corrupt the id index, and one past the 48-bit id field would be
    // truncated in the fingerprint index, so reject the snapshot instead.
    if (!r.ok() || !valid_packet_id(id) || store_.contains(id)) return false;
    // The payload is copied straight from the snapshot into the store's
    // arena — no intermediate owning buffer.
    restore_packet(id, payload, meta);
  }
  const std::uint32_t fps = r.u32();
  for (std::uint32_t i = 0; i < fps; ++i) {
    const rabin::Fingerprint fp = r.u64();
    FpEntry entry;
    entry.packet_id = r.u64();
    entry.offset = r.u16();
    if (!r.ok()) return false;
    // A fingerprint naming an absent packet (or a window starting past
    // the owner's payload) breaks the table invariants that audit() and
    // the hit-expansion path rely on; a corrupted or truncated snapshot
    // must come back empty, not subtly wrong.
    const CachedPacket* owner = store_.peek(entry.packet_id);
    if (owner == nullptr || entry.offset >= owner->payload.size()) {
      return false;
    }
    restore_fingerprint(fp, entry);
  }
  return r.ok();
}

void CacheTier::save(SnapshotWriter& w) {
  if (stripe_ == nullptr) {
    // Byte-identical to the pre-tier persist format for the default
    // configuration — old snapshots and their goldens stay valid.
    save_l1(w);
    return;
  }
  ++seq_;
  w.u32(kSnapMagicTier);
  w.u64(seq_);
  save_l1(w);
  // Host attribution rides out of band so the embedded flat block
  // stays byte-identical to the legacy format.
  std::uint32_t patched = 0;
  for (const CachedPacket& p : store_.entries()) {
    if (p.meta.host_key != 0) ++patched;
  }
  w.u32(patched);
  for (const CachedPacket& p : store_.entries()) {
    if (p.meta.host_key != 0) {
      w.u64(p.id);
      w.u64(p.meta.host_key);
    }
  }
  w.u8(1);  // an L2 block follows
  stripe_->save(w);
}

bool CacheTier::reject(SnapshotReader& r) {
  clear_l1();
  if (stripe_ != nullptr) stripe_->clear();
  promote_queue_.clear();
  seq_ = 0;
  r.fail();
  return false;
}

void CacheTier::loaded(std::uint64_t seq) {
  promote_queue_.clear();
  seq_ = seq;
  // An image from a larger configuration may exceed this L1 budget: trim
  // the LRU end as an insert would.  The victims are dropped, not
  // demoted (the stripe was just restored to its own image), and purging
  // their entries first leaves the eviction hook nothing to count.
  while (const CachedPacket* victim = store_.over_budget_victim()) {
    (void)table_.purge(victim->id, victim->fps);
    store_.erase(victim->id);
  }
}

bool CacheTier::load(SnapshotReader& r) {
  switch (r.peek_u32()) {
    case kSnapMagicFlat:
      return load_flat(r);
    case kSnapMagicTier:
      return load_tier(r);
    default:
      return reject(r);
  }
}

bool CacheTier::load_flat(SnapshotReader& r) {
  if (!load_l1(r)) return reject(r);
  // A flat snapshot is the complete state: whatever the stripe held is
  // gone, and legacy snapshots carry no state version.
  if (stripe_ != nullptr) stripe_->clear();
  loaded(0);
  return true;
}

bool CacheTier::load_tier(SnapshotReader& r) {
  (void)r.u32();  // magic, already sniffed
  const std::uint64_t seq = r.u64();
  if (!r.ok()) return reject(r);
  if (!load_l1(r)) return reject(r);
  const std::uint32_t patched = r.u32();
  for (std::uint32_t i = 0; i < patched; ++i) {
    const std::uint64_t id = r.u64();
    const std::uint64_t host_key = r.u64();
    // A patch naming an absent packet cannot come from save().  (The
    // lookup takes the whole u64, so an id past the 48-bit field is
    // absent, never truncated onto another packet.)
    if (!r.ok() || !store_.contains(id)) return reject(r);
    store_.set_host_key(id, host_key);
  }
  const std::uint8_t has_l2 = r.u8();
  if (!r.ok() || has_l2 > 1) return reject(r);
  if (has_l2 != 0) {
    // An L2 image needs a stripe to live in; restoring it into an
    // L2-less cache would silently drop cache contents.
    if (stripe_ == nullptr) return reject(r);
    if (!stripe_->load(r)) return reject(r);
    // The tier is found by id, so ids must be unique across tiers — and
    // stay so, though an L2 resident can hold the newest id.
    for (const CachedPacket& p : store_.entries()) {
      if (stripe_->contains(p.id)) return reject(r);
    }
    store_.reserve_ids_through(stripe_->max_id());
  } else if (stripe_ != nullptr) {
    stripe_->clear();
  }
  loaded(seq);
  return true;
}

}  // namespace bytecache::cache
