#include "cache/byte_cache.h"

#include "util/check.h"

namespace bytecache::cache {

ByteCache::ByteCache(const CacheConfig& config) : store_(config) {
  store_.set_evict_listener(this);
  if (config.l1_bytes > 0) {
    // One selected fingerprint per 2^select_bits = 16 payload bytes at the
    // paper's parameters: pre-size the table so steady state never
    // rehashes.
    table_.reserve(config.l1_bytes / 16);
  }
}

void ByteCache::on_evict(const CachedPacket& pkt, EvictReason reason) {
  // A packet owning no entries can never be hit again (lookups start at
  // the index), so it is not worth L2 bytes — and has nothing to purge
  // either.  The table's owner count answers without walking `fps`.
  if (table_.owned(pkt.id) == 0) return;
  // Budget victims are still warm: offer them to the tier below, whose
  // admission keeps their entries in place.
  if (reason == EvictReason::kBudget && lower_ != nullptr &&
      lower_->on_demote(pkt)) {
    return;
  }
  // Purge only entries still owned by the departing packet: a newer
  // payload may have overwritten some of them, and those must survive.
  stats_.fingerprints_purged += table_.purge(pkt.id, pkt.fps);
}

std::uint64_t ByteCache::update(util::BytesView payload,
                                const std::vector<rabin::Anchor>& anchors,
                                const PacketMeta& meta) {
  if (anchors.empty()) return 0;
  const std::uint64_t id = store_.insert(payload, meta, anchors);
  table_.put_anchors(id, anchors);
  ++stats_.packets_inserted;
  stats_.fingerprints_inserted += anchors.size();
  return id;
}

std::optional<CacheHit> ByteCache::find(rabin::Fingerprint fp) {
  ++stats_.lookups;
  const auto entry = table_.get(fp);
  if (!entry) return std::nullopt;
  return hit(fp, *entry);
}

void ByteCache::probe_batch(std::span<const rabin::Anchor> anchors,
                            std::vector<ProbeResult>& out) const {
  out.resize(anchors.size());
  table_.probe_batch(anchors, out);
}

std::optional<CacheHit> ByteCache::resolve(rabin::Fingerprint fp,
                                           const ProbeResult& probe) {
  // Mirrors find() step for step; the probe replaces only the table get.
  ++stats_.lookups;
  if (!probe.found) return std::nullopt;
  return hit(fp, probe.entry);
}

std::optional<CacheHit> ByteCache::hit(rabin::Fingerprint fp,
                                       const FpEntry& entry) {
  if (const CachedPacket* pkt = store_.lookup(entry.packet_id)) {
    ++stats_.hits;
    return CacheHit{pkt, entry.offset};
  }
  if (lower_ != nullptr) {
    if (const CachedPacket* pkt = lower_->lookup(entry.packet_id)) {
      return CacheHit{pkt, entry.offset};
    }
  }
  // Unreachable while the eviction purge holds (see CacheTier::audit),
  // but kept: a stale entry must never serve a hit.  (If the same stale
  // fingerprint was probed twice in one batch, the second erase is a
  // no-op and stale_hits counts it again — find() would have counted a
  // plain miss — an observable difference only on this
  // purge-already-failed path.)
  table_.erase(fp);
  ++stats_.stale_hits;
  return std::nullopt;
}

bool ByteCache::invalidate(rabin::Fingerprint fp) {
  auto entry = table_.get(fp);
  if (!entry) return false;
  store_.erase(entry->packet_id);  // eviction hook purges fp and siblings
  table_.erase(fp);                // no-op if the hook already removed it
  return true;
}

std::size_t ByteCache::fingerprint_count() const {
  if (lower_ == nullptr) return table_.size();
  std::size_t owned = 0;
  table_.for_each([&](rabin::Fingerprint, const FpEntry& entry) {
    if (store_.contains(entry.packet_id)) ++owned;
  });
  return owned;
}

void ByteCache::audit() const {
  if (!util::kAuditEnabled) return;
  store_.audit();
  // Entries of L2 residents count as stale here; CacheTier::audit holds
  // every entry to resolving in exactly one tier.
  (void)table_.audit(store_);
  // (Snapshot restore bypasses the counters, so only intra-stat relations
  // can be asserted here, not stats against store contents.)
  BC_AUDIT(stats_.hits + stats_.stale_hits <= stats_.lookups)
      << "hits " << stats_.hits << " + stale " << stats_.stale_hits
      << " exceed lookups " << stats_.lookups;
}

void ByteCache::flush() {
  store_.clear();
  table_.clear();
  ++stats_.flushes;
}

void ByteCache::save(SnapshotWriter& w) const {
  w.u32(kSnapMagicFlat);
  w.u32(static_cast<std::uint32_t>(store_.size()));
  for (const CachedPacket& p : store_.entries()) {
    w.u64(p.id);
    w.u64(p.meta.flow_key);
    w.u64(p.meta.src_uid);
    w.u64(p.meta.stream_index);
    w.u32(p.meta.tcp_seq);
    w.u32(p.meta.tcp_end_seq);
    w.u32(p.meta.epoch);
    w.u8(p.meta.has_tcp_seq ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(p.payload.size()));
    w.bytes(p.payload);
  }
  // With a lower tier attached the index also holds its residents'
  // entries; those travel in the tier's own block.
  const auto l1_owned = [&](const FpEntry& entry) {
    return lower_ == nullptr || store_.contains(entry.packet_id);
  };
  w.u32(static_cast<std::uint32_t>(fingerprint_count()));
  table_.for_each([&](rabin::Fingerprint fp, const FpEntry& entry) {
    if (!l1_owned(entry)) return;
    w.u64(fp);
    w.u64(entry.packet_id);
    w.u16(entry.offset);
  });
}

bool ByteCache::load(SnapshotReader& r) {
  flush();
  auto reject = [&] {
    flush();
    r.fail();
    return false;
  };
  if (r.u32() != kSnapMagicFlat || !r.ok()) return reject();
  const std::uint32_t packets = r.u32();
  for (std::uint32_t i = 0; i < packets; ++i) {
    const std::uint64_t id = r.u64();
    PacketMeta meta;
    meta.flow_key = r.u64();
    meta.src_uid = r.u64();
    meta.stream_index = r.u64();
    meta.tcp_seq = r.u32();
    meta.tcp_end_seq = r.u32();
    meta.epoch = r.u32();
    meta.has_tcp_seq = r.u8() != 0;
    const std::uint32_t len = r.u32();
    const util::BytesView payload = r.bytes(len);
    // PacketStore::restore trusts its input: a zero or duplicate id would
    // corrupt the id index, so reject the snapshot instead.
    if (!r.ok() || id == 0 || store_.contains(id)) return reject();
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
    if (!r.ok()) return reject();
    // A fingerprint naming an absent packet (or a window starting past
    // the owner's payload) breaks the table invariants that audit() and
    // the hit-expansion path rely on; a corrupted or truncated snapshot
    // must come back empty, not subtly wrong.
    const CachedPacket* owner = store_.peek(entry.packet_id);
    if (owner == nullptr || entry.offset >= owner->payload.size()) {
      return reject();
    }
    restore_fingerprint(fp, entry);
  }
  return r.ok();
}

}  // namespace bytecache::cache
