#include "cache/fingerprint_table.h"

#include <algorithm>
#include <ios>

#include "cache/packet_store.h"
#include "util/check.h"

namespace bytecache::cache {

void FingerprintTable::put(rabin::Fingerprint fp, FpEntry entry) {
  if (entry.packet_id == 0) return;
  BC_CHECK(entry.packet_id < kPacketIdLimit)
      << "fingerprint entry names id " << entry.packet_id
      << ", past the 48-bit id field";
  bool inserted = false;
  Packed& slot = map_.upsert(fp, inserted);
  const std::uint64_t previous = inserted ? 0 : unpack(slot).packet_id;
  slot = pack(entry.packet_id, entry.offset);
  if (previous == entry.packet_id) return;
  if (previous != 0) disown(previous, 1);
  bool fresh = false;
  ++owners_.upsert(entry.packet_id, fresh);
}

void FingerprintTable::put_anchors(std::uint64_t id,
                                   std::span<const rabin::Anchor> anchors) {
  if (id == 0 || anchors.empty()) return;
  // The anchors' home slots are spread over the whole index and those
  // taken from a copy's source were never probed: keep kProbeAhead slot
  // fetches in flight, as probe_batch does.
  const std::size_t n = anchors.size();
  for (std::size_t i = 0; i < std::min(n, kProbeAhead); ++i) {
    map_.prefetch(anchors[i].fp);
  }
  // A new packet usually takes over long runs of entries from the one
  // older copy of the same content: settle each run's count once.
  std::uint32_t gained = 0;
  std::uint64_t run_owner = 0;
  std::uint32_t run_len = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kProbeAhead < n) map_.prefetch(anchors[i + kProbeAhead].fp);
    const rabin::Anchor& a = anchors[i];
    bool inserted = false;
    Packed& slot = map_.upsert(a.fp, inserted);
    if (inserted) {
      ++gained;
    } else if (const std::uint64_t owner = unpack(slot).packet_id;
               owner != id) {
      if (owner != run_owner) {
        if (run_len != 0) disown(run_owner, run_len);
        run_owner = owner;
        run_len = 0;
      }
      ++run_len;
      ++gained;
    }
    slot = pack(id, a.offset);
  }
  if (run_len != 0) disown(run_owner, run_len);
  if (gained != 0) {
    bool fresh = false;
    owners_.upsert(id, fresh) += gained;
  }
}

std::size_t FingerprintTable::purge(std::uint64_t packet_id,
                                   std::span<const rabin::Fingerprint> fps) {
  const std::uint32_t owned_entries = owned(packet_id);
  if (owned_entries == 0) return 0;
  // The fingerprints' slots are spread over the whole index, so pull
  // them all in before walking them.
  for (rabin::Fingerprint fp : fps) map_.prefetch(fp);
  std::uint32_t purged = 0;
  for (rabin::Fingerprint fp : fps) {
    if (map_.erase_if(fp, OwnedBy{packet_id}) && ++purged == owned_entries) {
      break;
    }
  }
  disown(packet_id, purged);
  return purged;
}

void FingerprintTable::probe_batch(std::span<const rabin::Anchor> anchors,
                                   std::span<ProbeResult> out) const {
  BC_CHECK(out.size() >= anchors.size())
      << "probe_batch result span too small: " << out.size() << " < "
      << anchors.size();
  const std::size_t n = anchors.size();
  // Prime the pipeline: the first kProbeAhead home slots start their way
  // up the cache hierarchy before any probe needs them.
  const std::size_t warm = n < kProbeAhead ? n : kProbeAhead;
  for (std::size_t i = 0; i < warm; ++i) map_.prefetch(anchors[i].fp);
  for (std::size_t i = 0; i < n; ++i) {
    if (i + kProbeAhead < n) map_.prefetch(anchors[i + kProbeAhead].fp);
    const Packed* e = map_.find(anchors[i].fp);
    if (e == nullptr) {
      out[i].found = false;
    } else {
      out[i].entry = unpack(*e);
      out[i].found = true;
    }
  }
}

std::size_t FingerprintTable::audit(const PacketStore& store) const {
  if (!util::kAuditEnabled) return 0;
  std::size_t stale = 0;
  for_each([&](std::uint64_t fp, const FpEntry& entry) {
    BC_AUDIT(entry.packet_id != 0 && entry.packet_id < store.next_id())
        << "fingerprint 0x" << std::hex << fp << std::dec
        << " references id " << entry.packet_id
        << " the store never assigned (next_id " << store.next_id() << ")";
    const CachedPacket* pkt = store.peek(entry.packet_id);
    if (pkt == nullptr) {
      ++stale;  // packet evicted since the entry was written: legal
      return;
    }
    BC_AUDIT(entry.offset < pkt->payload.size())
        << "fingerprint 0x" << std::hex << fp << std::dec << " offset "
        << entry.offset << " outside payload of " << pkt->payload.size()
        << " bytes (id " << entry.packet_id << ")";
  });
  audit_owner_counts();
  return stale;
}

void FingerprintTable::audit_owner_counts() const {
  if (!util::kAuditEnabled) return;
  util::FlatMap64<std::uint32_t> tally;
  for_each([&](std::uint64_t, const FpEntry& entry) {
    bool inserted = false;
    ++tally.upsert(entry.packet_id, inserted);
  });
  BC_AUDIT(tally.size() == owners_.size())
      << owners_.size() << " owner counts kept but " << tally.size()
      << " packets own entries";
  tally.for_each([&](std::uint64_t id, std::uint32_t n) {
    BC_AUDIT(owned(id) == n)
        << "owner count of packet " << id << " is " << owned(id) << " but "
        << n << " entries name it";
  });
}

}  // namespace bytecache::cache
