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

void CacheTier::flush() {
  store_.clear();
  table_.clear();
  ++stats_.flushes;
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
  // (Flushes and evictions empty the store but not the counters, so only
  // intra-stat relations can be asserted here, not stats against store
  // contents.)
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

}  // namespace bytecache::cache
