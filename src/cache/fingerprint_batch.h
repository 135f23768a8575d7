// The batched FingerprintTable operations, over a bucket compare chosen
// by the caller.  Included by fingerprint_table.cc (scalar compare) and
// fingerprint_table_avx2.cc (AVX2 compare) only.
//
// Each loop hashes a fingerprint once: the hash that prefetches the home
// bucket kProbeAhead keys early waits in a ring until the probe that
// uses it.
#pragma once

#include <algorithm>
#include <array>
#include <bit>

#include "cache/fingerprint_table.h"

namespace bytecache::cache {

namespace detail {

/// Hashes of the next kProbeAhead keys of a list, each prefetched into
/// the cache when it is computed.  next(i) must be called for i = 0, 1,
/// 2, ... in order.
template <typename Map, typename KeyAt>
class HashAhead {
 public:
  static constexpr std::size_t kAhead = FingerprintTable::kProbeAhead;
  static_assert(std::has_single_bit(kAhead));

  HashAhead(const Map& map, std::size_t n, KeyAt key_at)
      : map_(map), n_(n), key_at_(key_at) {
    for (std::size_t i = 0; i < std::min(n, kAhead); ++i) fetch(i);
  }

  /// Key i's hash; starts fetching key i + kAhead's bucket.
  std::uint64_t next(std::size_t i) {
    const std::uint64_t hash = ring_[i % kAhead];
    if (i + kAhead < n_) fetch(i + kAhead);
    return hash;
  }

 private:
  void fetch(std::size_t i) {
    const std::uint64_t hash = util::mix64(key_at_(i));
    map_.prefetch_hashed(hash);
    ring_[i % kAhead] = hash;
  }

  const Map& map_;
  std::size_t n_;
  KeyAt key_at_;
  std::array<std::uint64_t, kAhead> ring_{};
};

}  // namespace detail

template <typename Match>
void FingerprintTable::probe_batch_with(std::span<const rabin::Anchor> anchors,
                                        std::span<ProbeResult> out) const {
  const std::size_t n = anchors.size();
  detail::HashAhead ahead(map_, n,
                          [&](std::size_t i) { return anchors[i].fp; });
  for (std::size_t i = 0; i < n; ++i) {
    const Packed* e =
        map_.find_hashed<Match>(ahead.next(i), anchors[i].fp);
    if (e == nullptr) {
      out[i].found = false;
    } else {
      out[i].entry = unpack(*e);
      out[i].found = true;
    }
  }
}

template <typename Match>
void FingerprintTable::put_anchors_with(
    std::uint64_t id, std::span<const rabin::Anchor> anchors) {
  const std::size_t n = anchors.size();
  map_.make_room(n);
  // The anchors' home buckets are spread over the whole index and those
  // taken from a copy's source were never probed: keep kProbeAhead
  // bucket fetches in flight, as probe_batch does.
  detail::HashAhead ahead(map_, n,
                          [&](std::size_t i) { return anchors[i].fp; });
  // A new packet usually takes over long runs of entries from the one
  // older copy of the same content: settle each run's count once.
  std::uint32_t gained = 0;
  std::uint64_t run_owner = 0;
  std::uint32_t run_len = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const rabin::Anchor& a = anchors[i];
    bool inserted = false;
    Packed& slot = map_.upsert_hashed<Match>(ahead.next(i), a.fp, inserted);
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

template <typename Match>
std::size_t FingerprintTable::purge_with(
    std::uint64_t packet_id, std::span<const rabin::Fingerprint> fps) {
  const std::uint32_t owned_entries = owned(packet_id);
  if (owned_entries == 0) return 0;
  // The fingerprints' buckets are spread over the whole index.
  detail::HashAhead ahead(map_, fps.size(),
                          [&](std::size_t i) { return fps[i]; });
  std::uint32_t purged = 0;
  for (std::size_t i = 0; i < fps.size(); ++i) {
    if (map_.erase_if_hashed<Match>(ahead.next(i), fps[i],
                                    OwnedBy{packet_id}) &&
        ++purged == owned_entries) {
      break;
    }
  }
  disown(packet_id, purged);
  return purged;
}

}  // namespace bytecache::cache
