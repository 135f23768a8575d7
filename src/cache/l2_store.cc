#include "cache/l2_store.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "util/check.h"

namespace bytecache::cache {

// ---------------------------------------------------------------- Stripe

L2Store::Stripe::Stripe(const CacheConfig& config, std::size_t share_bytes)
    : config_(config), share_(share_bytes) {
  // At least one packet per minimum arena slice: pre-sized so
  // steady-state demotion churn never rehashes.
  id_index_.reserve(share_ / SliceArena::kMinSlice);
}

std::uint32_t L2Store::Stripe::occupy(std::uint64_t id,
                                      util::BytesView payload,
                                      const PacketMeta& meta) {
  const bool fresh = free_.empty();
  const std::uint32_t slot = acquire_slot(slots_, free_);
  Slot& s = slots_[slot];
  const std::size_t len = payload.size();
  if (fresh) reserve_anchor_lists(s.pkt, len);
  s.pkt.id = id;
  s.slice = arena_.alloc(len);
  if (len != 0) std::memcpy(s.slice.data, payload.data(), len);
  s.pkt.payload = PayloadView{s.slice.data, len};
  s.pkt.meta = meta;
  s.live = true;
  bytes_used_ += len;
  HostEntry* e = hosts_.obtain(meta.host_key);
  Global::push_front(slots_, recency_, slot);
  HostChain::push_front(slots_, e->chain, slot);
  e->bytes += len;
  id_index_.put(id, slot);
  return slot;
}

void L2Store::Stripe::retire_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  // The slice is parked, not freed: payload views handed out this packet
  // (match expansion, promotion copy) stay readable until end_packet().
  limbo_.push_back(s.slice);
  s.slice = SliceArena::Slice{};
  s.pkt.payload = PayloadView{};
  s.pkt.fps.clear();  // keeps heap capacity for the next occupant
  s.pkt.offsets.clear();
  s.pkt.id = 0;
  s.pkt.meta = PacketMeta{};
  s.promote_pending = false;
  s.live = false;
  free_.push_back(slot);
}

void L2Store::Stripe::touch(std::uint32_t slot) {
  Global::touch(slots_, recency_, slot);
  HostEntry* e = hosts_.find(slots_[slot].pkt.meta.host_key);
  if (e != nullptr) HostChain::touch(slots_, e->chain, slot);
}

void L2Store::Stripe::remove_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  const std::uint64_t key = s.pkt.meta.host_key;
  const std::size_t len = s.pkt.payload.size();
  bytes_used_ -= len;
  Global::unlink(slots_, recency_, slot);
  // Host accounting must run while the slot's meta/payload are intact.
  HostEntry* he = hosts_.find(key);
  BC_CHECK(he != nullptr && he->bytes >= len)
      << "slot " << slot << " chained under host pair " << key
      << " the ledger lost or under-accounts";
  HostChain::unlink(slots_, he->chain, slot);
  he->bytes -= len;
  hosts_.release_if_idle(key);
  id_index_.erase(s.pkt.id);
  retire_slot(slot);
}

std::size_t L2Store::Stripe::evict_slot(std::uint32_t slot) {
  const CachedPacket& pkt = slots_[slot].pkt;
  // Purge only entries the packet still owns: a newer packet may have
  // overwritten some — or all, which skips the walk.
  const std::size_t purged = index_->purge(pkt.id, pkt.fps);
  remove_slot(slot);
  return purged;
}

const CachedPacket* L2Store::Stripe::find(std::uint64_t id,
                                          bool& enqueue_promotion) {
  enqueue_promotion = false;
  const std::uint32_t* slotp = id_index_.find(id);
  if (slotp == nullptr) return nullptr;
  const std::uint32_t slot = *slotp;
  touch(slot);
  Slot& s = slots_[slot];
  if (!s.promote_pending) {
    s.promote_pending = true;
    enqueue_promotion = true;
  }
  ++stats_.l2_hits;
  return &s.pkt;
}

bool L2Store::Stripe::admit(const CachedPacket& pkt) {
  ++stats_.demotions;
  const std::size_t len = pkt.payload.size();
  // A packet larger than the stripe share would be evicted again at the
  // next epoch boundary; rejecting it outright spares warmer entries.
  if (len > share_) {
    ++stats_.demotions_rejected;
    return false;
  }
  const std::uint64_t host = pkt.meta.host_key;
  if (config_.per_host_pair_bytes > 0) {
    if (len > config_.per_host_pair_bytes) {
      ++stats_.demotions_rejected;
      return false;
    }
    // Over-budget pairs evict their OWN coldest packets — never a
    // neighbour's — so one elephant pair cannot churn out the mice.
    while (true) {
      HostEntry* e = hosts_.find(host);
      if (e == nullptr || e->bytes + len <= config_.per_host_pair_bytes) {
        break;
      }
      BC_CHECK(e->chain.tail != kNilSlot)
          << "pair " << host << " holds " << e->bytes
          << " bytes but chains no packets";
      ++e->evictions;
      stats_.l2_fingerprints_purged += evict_slot(e->chain.tail);
      ++stats_.host_evictions;
    }
  }
  BC_CHECK(id_index_.find(pkt.id) == nullptr)
      << "demoted packet " << pkt.id << " is already L2-resident";
  Slot& s = slots_[occupy(pkt.id, pkt.payload, pkt.meta)];
  s.pkt.fps = pkt.fps;  // reuses the slot's capacity
  s.pkt.offsets = pkt.offsets;
  // NOTE: the stripe may now exceed its share; enforcement is deferred to
  // end_packet() so nothing this packet referenced is freed under it.
  return true;
}

bool L2Store::Stripe::take(std::uint64_t id, Taken& out) {
  const std::uint32_t* slotp = id_index_.find(id);
  if (slotp == nullptr) return false;
  Slot& s = slots_[*slotp];
  out.id = id;
  out.payload = s.pkt.payload;  // backed by the limbo'd slice
  out.meta = s.pkt.meta;
  out.fps.swap(s.pkt.fps);
  out.offsets.swap(s.pkt.offsets);
  remove_slot(*slotp);
  return true;
}

bool L2Store::Stripe::invalidate(std::uint64_t id) {
  const std::uint32_t* slotp = id_index_.find(id);
  if (slotp == nullptr) return false;
  stats_.l2_fingerprints_purged += evict_slot(*slotp);
  return true;
}

void L2Store::Stripe::end_packet() {
  // Never evicts the sole resident (admit() already bounds any single
  // packet by the share, so the loop terminates regardless).
  while (bytes_used_ > share_ && recency_.head != recency_.tail) {
    stats_.l2_fingerprints_purged += evict_slot(recency_.tail);
    ++stats_.l2_evictions;
  }
  free_limbo();
}

void L2Store::Stripe::clear() {
  for (std::uint32_t s = recency_.head; s != kNilSlot;) {
    const std::uint32_t next = slots_[s].next;
    slots_[s].prev = slots_[s].next = kNilSlot;
    slots_[s].host_prev = slots_[s].host_next = kNilSlot;
    retire_slot(s);
    s = next;
  }
  recency_ = ChainEnds{};
  id_index_.clear();
  hosts_.clear();
  bytes_used_ = 0;
  // A flush frees limbo immediately: no payload view survives a flush.
  free_limbo();
}

void L2Store::Stripe::free_limbo() {
  for (const SliceArena::Slice& s : limbo_) arena_.free(s);
  limbo_.clear();
}

void L2Store::Stripe::audit() const {
  if (!util::kAuditEnabled) return;
  std::size_t bytes = 0;
  std::size_t arena_slices = 0;
  const std::size_t entries = Global::audit(
      slots_, recency_, "L2 chain", [&](std::uint32_t s, const Slot& slot) {
        bytes += slot.pkt.payload.size();
        BC_AUDIT(slot.pkt.payload.data() == slot.slice.data)
            << "L2 slot " << s << " payload view detached from its slice";
        if (slot.slice.data != nullptr &&
            slot.slice.cls != SliceArena::kHeapClass) {
          ++arena_slices;
        }
        BC_AUDIT(slot.pkt.id != 0) << "live L2 slot " << s << " holds id 0";
        audit_anchor_list(slot.pkt);
        const std::uint32_t* idx = id_index_.find(slot.pkt.id);
        BC_AUDIT(idx != nullptr && *idx == s)
            << "L2 id index disagrees with the chain for id " << slot.pkt.id;
      });
  BC_AUDIT(entries == id_index_.size())
      << "L2 chain has " << entries << " entries but the id index has "
      << id_index_.size();
  BC_AUDIT(entries + free_.size() == slots_.size())
      << entries << " live + " << free_.size() << " free slots != slab of "
      << slots_.size();
  BC_AUDIT(bytes == bytes_used_)
      << "L2 bytes_used_ " << bytes_used_ << " != sum of payload sizes "
      << bytes;
  BC_AUDIT(bytes_used_ <= share_ || entries <= 1)
      << "stripe share " << share_ << " exceeded between packets: "
      << bytes_used_ << " bytes";
  // Per-host accounting: every chain partitions the live slots, each
  // pair's bytes match its chained payloads, and budgets hold.
  std::size_t host_bytes_total = 0;
  std::size_t host_entries_total = 0;
  hosts_.for_each([&](std::uint64_t key, const HostEntry& e) {
    std::size_t pair_bytes = 0;
    host_entries_total += HostChain::audit(
        slots_, e.chain, "host chain of pair " + std::to_string(key),
        [&](std::uint32_t s, const Slot& slot) {
          BC_AUDIT(slot.pkt.meta.host_key == key)
              << "slot " << s << " chained under pair " << key
              << " but attributed to " << slot.pkt.meta.host_key;
          pair_bytes += slot.pkt.payload.size();
        });
    BC_AUDIT(pair_bytes == e.bytes)
        << "pair " << key << " ledger says " << e.bytes
        << " bytes but chains " << pair_bytes;
    BC_AUDIT(e.bytes > 0 || e.chain.head != kNilSlot)
        << "idle pair " << key << " was not released";
    BC_AUDIT(config_.per_host_pair_bytes == 0 ||
             e.bytes <= config_.per_host_pair_bytes)
        << "pair " << key << " holds " << e.bytes
        << " bytes over its budget " << config_.per_host_pair_bytes;
    host_bytes_total += e.bytes;
  });
  BC_AUDIT(host_entries_total == entries)
      << "host chains cover " << host_entries_total << " slots, not "
      << entries;
  BC_AUDIT(host_bytes_total == bytes_used_)
      << "host ledgers account " << host_bytes_total << " of "
      << bytes_used_ << " bytes";
  BC_AUDIT(limbo_.empty())
      << limbo_.size() << " limbo slices survived the epoch boundary";
  arena_.audit();
  BC_AUDIT(arena_.live() == arena_slices)
      << "L2 arena reports " << arena_.live() << " live slices but "
      << arena_slices << " live entries hold one";
}

// --------------------------------------------------------------- L2Store

L2Store::L2Store(const CacheConfig& config, std::size_t stripes)
    : config_(config) {
  BC_CHECK(stripes >= 1) << "L2Store needs at least one stripe";
  BC_CHECK(config.l2_bytes > 0) << "L2Store constructed with no L2 budget";
  const std::size_t share =
      std::max<std::size_t>(std::size_t{1}, config.l2_bytes / stripes);
  // Every stripe is built up front (construction is cold); attach() hands
  // them out without allocating.
  stripes_.reserve(stripes);
  for (std::size_t i = 0; i < stripes; ++i) {
    stripes_.push_back(std::make_unique<Stripe>(config, share));
  }
}

L2Store::Stripe* L2Store::attach(FingerprintTable& index) {
  BC_CHECK(attached_ < stripes_.size())
      << "more codecs attached than the store's " << stripes_.size()
      << " stripes";
  Stripe* stripe = stripes_[attached_++].get();
  stripe->index_ = &index;
  return stripe;
}

}  // namespace bytecache::cache
