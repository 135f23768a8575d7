// Slab allocator for cached payload bytes (the PacketStore's backing
// memory), in the style of beng-proxy's SlicePool.
//
// Payload buffers come from per-size-class freelists carved out of
// 2 MiB-aligned areas (util::huge_alloc: hinted MADV_HUGEPAGE on Linux,
// so the kernel can back the whole arena with huge pages and the
// data-plane TLB footprint of a multi-hundred-MB cache collapses to one
// entry per 2 MiB).
#pragma once
//
// Size classes are the powers of two from 256 B to 64 KiB — the upper
// bound is the codec's 16-bit payload limit, the lower bound keeps the
// class count (and per-payload overhead, < 2x) small.  Each area is
// dedicated to ONE class and carved into equal slices whose first 8
// bytes, while free, hold the intrusive freelist link: alloc() pops a
// slice, free() pushes it back, both O(1) pointer swaps with zero
// per-slice metadata.  Areas are never returned to the OS before
// destruction; a long-running gateway's arena converges to the cache's
// working-set footprint and stops touching the system allocator
// entirely — the store/evict churn of the steady-state data plane costs
// two list operations per packet.
//
// Oversize requests (beyond 64 KiB: only reachable by direct PacketStore
// users, never through the codec) and zero-byte requests fall back to
// plain heap / null slices so the store stays fully general.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/huge_pages.h"

namespace bytecache::cache {

class SliceArena {
 public:
  /// One allocated buffer: `data` points at class_size(cls) usable bytes
  /// (at least the requested size).  Treat as an opaque token to pass
  /// back to free(); a default-constructed (null) slice is the empty
  /// allocation and may be freed harmlessly.
  struct Slice {
    std::uint8_t* data = nullptr;
    std::uint8_t cls = 0;
  };

  static constexpr std::size_t kMinSlice = 256;
  static constexpr std::size_t kMaxSlice = 64 * 1024;
  static constexpr std::size_t kClasses = 9;  // 256 << 0 .. 256 << 8
  static constexpr std::size_t kAreaBytes = util::kHugePageBytes;
  /// Marker class for oversize heap-backed slices.
  static constexpr std::uint8_t kHeapClass = 0xFF;

  SliceArena() = default;
  ~SliceArena();

  // Freed slices hold raw pointers into the areas; relocation of the
  // bookkeeping is fine, but copying would double-free areas.
  SliceArena(const SliceArena&) = delete;
  SliceArena& operator=(const SliceArena&) = delete;

  /// Usable bytes of class `cls`.
  [[nodiscard]] static constexpr std::size_t class_size(std::uint8_t cls) {
    return kMinSlice << cls;
  }

  /// Smallest class fitting `n` bytes (n in [1, kMaxSlice]).
  [[nodiscard]] static std::uint8_t class_of(std::size_t n);

  /// Returns a slice of at least `n` bytes: a null slice for n == 0, a
  /// freelist slice for n <= kMaxSlice (carving a new area when the
  /// class's list is empty), a heap buffer beyond that.
  [[nodiscard]] Slice alloc(std::size_t n);

  /// Returns `s` to its freelist (or the heap).  Null slices are no-ops.
  void free(Slice s);

  /// Outstanding (allocated, not yet freed) slices.
  [[nodiscard]] std::size_t live() const { return live_; }

  /// Bytes of area memory reserved from the OS (excludes heap fallbacks).
  [[nodiscard]] std::size_t bytes_reserved() const {
    return areas_.size() * kAreaBytes;
  }

  /// Deep invariant audit (BC_AUDIT; no-op unless the build enables
  /// audits): every freelist link points into an area of the matching
  /// class, and live + free slice counts add up to the carved total.
  void audit() const;

  /// Test-only seams (tests/slice_arena_test.cc); cold — touched once
  /// per 2 MiB area, never per slice.  One copy per thread: sharded
  /// gateway workers carve their codecs' arenas concurrently.
  struct TestHooks {
    /// When > 0, decremented per carve; hitting 0 makes that carve's
    /// bookkeeping growth throw std::bad_alloc — the exact window the
    /// area-leak regression test exercises.
    int fail_bookkeeping = 0;
    /// This thread's balance of areas obtained from / returned to the
    /// OS (heap-fallback slices excluded).
    std::uint64_t areas_allocated = 0;
    std::uint64_t areas_freed = 0;
  };
  static thread_local TestHooks test_hooks;

 private:
  /// While free, a slice's first bytes hold the next freelist entry.
  struct FreeSlice {
    FreeSlice* next;
  };

  struct Area {
    std::uint8_t* base = nullptr;
    std::uint8_t cls = 0;
  };

  /// Ensures areas_ can record one more area, throwing (injectable via
  /// test_hooks) BEFORE any memory is obtained.
  void grow_bookkeeping();

  void carve_area(std::uint8_t cls);

  std::vector<Area> areas_;
  FreeSlice* free_lists_[kClasses] = {};
  std::size_t live_ = 0;
  std::size_t carved_ = 0;  // slices ever cut out of areas
};

}  // namespace bytecache::cache
