#include "cache/fingerprint_table.h"

#include <ios>

#include "cache/fingerprint_batch.h"
#include "cache/packet_store.h"
#include "util/check.h"
#include "util/simd.h"

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

// The batched operations pick their bucket compare once per call.

void FingerprintTable::put_anchors(std::uint64_t id,
                                   std::span<const rabin::Anchor> anchors) {
  if (id == 0 || anchors.empty()) return;
#if BYTECACHE_X86
  if (util::simd().avx2) return put_anchors_avx2(id, anchors);
#endif
  put_anchors_with<util::ScalarKeyMatch>(id, anchors);
}

std::size_t FingerprintTable::purge(std::uint64_t packet_id,
                                   std::span<const rabin::Fingerprint> fps) {
#if BYTECACHE_X86
  if (util::simd().avx2) return purge_avx2(packet_id, fps);
#endif
  return purge_with<util::ScalarKeyMatch>(packet_id, fps);
}

void FingerprintTable::probe_batch(std::span<const rabin::Anchor> anchors,
                                   std::span<ProbeResult> out) const {
  BC_CHECK(out.size() >= anchors.size())
      << "probe_batch result span too small: " << out.size() << " < "
      << anchors.size();
#if BYTECACHE_X86
  if (util::simd().avx2) return probe_batch_avx2(anchors, out);
#endif
  probe_batch_with<util::ScalarKeyMatch>(anchors, out);
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
