#include "cache/packet_store.h"

#include <algorithm>
#include <cstring>

#include "util/check.h"

namespace bytecache::cache {

void CachedPacket::copy_anchors(std::size_t first, std::size_t last,
                                std::size_t to,
                                std::vector<rabin::Anchor>& out) const {
  const auto lo = std::lower_bound(offsets.begin(), offsets.end(), first);
  const auto hi = std::upper_bound(lo, offsets.end(), last);
  const auto begin = static_cast<std::size_t>(lo - offsets.begin());
  const auto n = static_cast<std::size_t>(hi - lo);
  const std::size_t base = out.size();
  out.resize(base + n);
  rabin::Anchor* dst = out.data() + base;
  const std::uint16_t* off = offsets.data() + begin;
  const rabin::Fingerprint* fp = fps.data() + begin;
  // `to - first` may be negative; 16-bit wrap-around still gives
  // offset - first + to exactly.
  const auto shift = static_cast<std::uint16_t>(to - first);
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = rabin::Anchor{static_cast<std::uint16_t>(off[i] + shift), fp[i]};
  }
}

void reserve_anchor_lists(CachedPacket& pkt, std::size_t payload_bytes) {
  if (payload_bytes == 0 || payload_bytes > SliceArena::kMaxSlice) return;
  const std::size_t anchors =
      SliceArena::class_size(SliceArena::class_of(payload_bytes)) /
      kBytesPerAnchor;
  pkt.fps.reserve(anchors);
  pkt.offsets.reserve(anchors);
}

void audit_anchor_list(const CachedPacket& pkt) {
  if (!util::kAuditEnabled) return;
  BC_AUDIT(pkt.fps.size() == pkt.offsets.size())
      << "packet " << pkt.id << " lists " << pkt.fps.size()
      << " fingerprints but " << pkt.offsets.size() << " offsets";
  for (std::size_t i = 0; i < pkt.offsets.size(); ++i) {
    BC_AUDIT(pkt.offsets[i] < pkt.payload.size())
        << "packet " << pkt.id << " anchor " << i << " at "
        << pkt.offsets[i] << " outside its " << pkt.payload.size()
        << "-byte payload";
    BC_AUDIT(i == 0 || pkt.offsets[i - 1] < pkt.offsets[i])
        << "packet " << pkt.id << " anchor list not ascending at "
        << i;
  }
}

PacketStore::PacketStore(const CacheConfig& config)
    : byte_budget_(config.l1_bytes) {}

void PacketStore::release_slot(std::uint32_t slot) {
  Slot& s = slots_[slot];
  // The payload's slice goes back on its arena freelist; the fingerprint
  // list clear() keeps heap capacity for the next occupant.
  arena_.free(s.slice);
  s.slice = SliceArena::Slice{};
  s.pkt.payload = PayloadView{};
  s.pkt.fps.clear();
  s.pkt.offsets.clear();
  s.pkt.id = 0;
  s.live = false;
  free_.push_back(slot);
}

PacketStore::Slot& PacketStore::occupy(std::uint64_t id,
                                       util::BytesView payload,
                                       const PacketMeta& meta) {
  const bool fresh = free_.empty();
  const std::uint32_t slot = acquire_slot(slots_, free_);
  Slot& s = slots_[slot];
  if (fresh) reserve_anchor_lists(s.pkt, payload.size());
  s.pkt.id = id;
  s.slice = arena_.alloc(payload.size());
  if (!payload.empty()) {
    std::memcpy(s.slice.data, payload.data(), payload.size());
  }
  s.pkt.payload = PayloadView{s.slice.data, payload.size()};
  s.pkt.meta = meta;
  s.live = true;
  bytes_used_ += payload.size();
  Lru::push_front(slots_, lru_, slot);
  index_.put(id, slot);
  return s;
}

std::uint64_t PacketStore::insert(util::BytesView payload,
                                  const PacketMeta& meta,
                                  const std::vector<rabin::Anchor>& anchors) {
  BC_CHECK(next_id_ < kPacketIdLimit)
      << "packet id " << next_id_ << " overflows the 48-bit id field";
  Slot& s = occupy(next_id_++, payload, meta);
  s.pkt.fps.resize(anchors.size());
  s.pkt.offsets.resize(anchors.size());
  for (std::size_t i = 0; i < anchors.size(); ++i) {
    s.pkt.fps[i] = anchors[i].fp;
    s.pkt.offsets[i] = anchors[i].offset;
  }
  evict_to_budget();
  return lru_.head == kNilSlot ? 0 : slots_[lru_.head].pkt.id;
}

const CachedPacket* PacketStore::lookup(std::uint64_t id) {
  const std::uint32_t* slot = index_.find(id);
  if (slot == nullptr) return nullptr;
  Lru::touch(slots_, lru_, *slot);
  return &slots_[*slot].pkt;
}

const CachedPacket* PacketStore::peek(std::uint64_t id) const {
  const std::uint32_t* slot = index_.find(id);
  return slot == nullptr ? nullptr : &slots_[*slot].pkt;
}

bool PacketStore::contains(std::uint64_t id) const {
  return index_.find(id) != nullptr;
}

void PacketStore::reinsert(const CachedPacket& pkt) {
  const std::uint64_t id = pkt.id;
  BC_CHECK(id != 0 && id < next_id_)
      << "reinsert of id " << id << " the store never assigned (next_id "
      << next_id_ << ")";
  BC_CHECK(index_.find(id) == nullptr)
      << "reinsert of live id " << id;
  Slot& s = occupy(id, pkt.payload, pkt.meta);
  s.pkt.fps = pkt.fps;  // copies reuse the slot's capacity
  s.pkt.offsets = pkt.offsets;
  evict_to_budget();
}

bool PacketStore::erase(std::uint64_t id) {
  const std::uint32_t* found = index_.find(id);
  if (found == nullptr) return false;
  const std::uint32_t slot = *found;
  if (listener_ != nullptr) {
    listener_->on_evict(slots_[slot].pkt, EvictReason::kExplicit);
  }
  bytes_used_ -= slots_[slot].pkt.payload.size();
  Lru::unlink(slots_, lru_, slot);
  index_.erase(id);
  release_slot(slot);
  return true;
}

void PacketStore::clear() {
  for (std::uint32_t s = lru_.head; s != kNilSlot;) {
    const std::uint32_t next = slots_[s].next;
    slots_[s].prev = slots_[s].next = kNilSlot;
    release_slot(s);
    s = next;
  }
  lru_ = ChainEnds{};
  index_.clear();
  bytes_used_ = 0;
}

void PacketStore::audit() const {
  if (!util::kAuditEnabled) return;
  std::size_t bytes = 0;
  std::size_t arena_slices = 0;  // live entries backed by an arena slice
  const std::size_t entries = Lru::audit(
      slots_, lru_, "LRU chain", [&](std::uint32_t s, const Slot& slot) {
        bytes += slot.pkt.payload.size();
        BC_AUDIT(slot.pkt.payload.data() == slot.slice.data)
            << "slot " << s << " payload view detached from its slice";
        if (slot.slice.data != nullptr &&
            slot.slice.cls != SliceArena::kHeapClass) {
          ++arena_slices;
          BC_AUDIT(slot.pkt.payload.size() <=
                   SliceArena::class_size(slot.slice.cls))
              << "slot " << s << " payload of " << slot.pkt.payload.size()
              << " bytes overflows its class "
              << SliceArena::class_size(slot.slice.cls);
        }
        audit_anchor_list(slot.pkt);
        BC_AUDIT(slot.pkt.id != 0 && slot.pkt.id < next_id_)
            << "stored id " << slot.pkt.id << " was never assigned (next_id "
            << next_id_ << ")";
        const std::uint32_t* idx = index_.find(slot.pkt.id);
        BC_AUDIT(idx != nullptr)
            << "LRU entry " << slot.pkt.id << " missing from the id index";
        if (idx != nullptr) {
          BC_AUDIT(*idx == s) << "index entry for id " << slot.pkt.id
                              << " points at slot " << *idx << ", not " << s;
        }
      });
  // Together with the per-entry lookups above this makes index_ <-> chain
  // a bijection: every chain node is indexed, and the sizes match.
  BC_AUDIT(entries == index_.size())
      << "LRU chain has " << entries << " entries but the index has "
      << index_.size();
  BC_AUDIT(entries + free_.size() == slots_.size())
      << entries << " live + " << free_.size() << " free slots != slab of "
      << slots_.size();
  BC_AUDIT(bytes == bytes_used_)
      << "bytes_used_ " << bytes_used_ << " != sum of payload sizes "
      << bytes;
  BC_AUDIT(byte_budget_ == 0 || bytes_used_ <= byte_budget_ ||
           entries <= 1)
      << "byte budget " << byte_budget_ << " exceeded: " << bytes_used_
      << " bytes across " << entries << " entries";
  arena_.audit();
  BC_AUDIT(arena_.live() == arena_slices)
      << "arena reports " << arena_.live() << " live slices but "
      << arena_slices << " live entries hold one";
}

void PacketStore::evict_to_budget() {
  // The newest entry is never evicted, even when it alone is over budget.
  while (byte_budget_ != 0 && bytes_used_ > byte_budget_ &&
         lru_.head != lru_.tail) {
    const std::uint32_t victim = lru_.tail;
    const CachedPacket& pkt = slots_[victim].pkt;
    if (listener_ != nullptr) listener_->on_evict(pkt, EvictReason::kBudget);
    bytes_used_ -= pkt.payload.size();
    index_.erase(pkt.id);
    Lru::unlink(slots_, lru_, victim);
    release_slot(victim);
    ++evictions_;
  }
}

}  // namespace bytecache::cache
