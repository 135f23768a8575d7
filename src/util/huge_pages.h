// Huge-page backed memory for the data plane's large arrays: the
// SliceArena's 2 MiB payload areas and the FlatMap64 bucket arrays of
// the fingerprint index (4 MiB per codec at the default cache size:
// 65,536 buckets of 64 bytes).
//
// Blocks of kHugePageBytes or more are mapped 2 MiB-aligned straight
// from the kernel and hinted MADV_HUGEPAGE on Linux, so with transparent
// huge pages in `madvise` mode (or `always`) each 2 MiB of a table costs
// one TLB entry instead of 512.  On a random-probe table far larger than
// the TLB's 4 KiB reach, that removes a page walk from nearly every
// probe.  The hint is advisory: a kernel without THP backs the block
// with ordinary pages.  Freeing unmaps the block.  (Aligned blocks from
// the malloc heap were not given back: each rebuilt codec grew the heap
// by tens of MiB around the small allocations pinned between them.)
#pragma once

#include <cstddef>
#include <new>

namespace bytecache::util {

inline constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

/// A block of `bytes` rounded up to whole huge pages, 2 MiB-aligned and
/// hinted for huge pages.  Throws std::bad_alloc; release with
/// huge_free, passing the same `bytes`.
[[nodiscard]] void* huge_alloc(std::size_t bytes);
void huge_free(void* p, std::size_t bytes) noexcept;

/// std::allocator drop-in: arrays of kHugePageBytes or more come from
/// huge_alloc, smaller ones from operator new — its aligned form when T
/// is over-aligned (a cache-line bucket), since plain operator new only
/// promises __STDCPP_DEFAULT_NEW_ALIGNMENT__.  deallocate() sees the
/// same element count, so it takes the same branch.
template <typename T>
struct HugePageAllocator {
  using value_type = T;

  static constexpr bool kOverAligned =
      alignof(T) > __STDCPP_DEFAULT_NEW_ALIGNMENT__;

  HugePageAllocator() = default;
  template <typename U>
  HugePageAllocator(const HugePageAllocator<U>&) {}  // NOLINT

  [[nodiscard]] T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (bytes >= kHugePageBytes) return static_cast<T*>(huge_alloc(bytes));
    if constexpr (kOverAligned) {
      return static_cast<T*>(
          ::operator new(bytes, std::align_val_t{alignof(T)}));
    } else {
      return static_cast<T*>(::operator new(bytes));
    }
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (n * sizeof(T) >= kHugePageBytes) {
      huge_free(p, n * sizeof(T));
    } else if constexpr (kOverAligned) {
      ::operator delete(p, std::align_val_t{alignof(T)});
    } else {
      ::operator delete(p);
    }
  }

  template <typename U>
  friend bool operator==(const HugePageAllocator&,
                         const HugePageAllocator<U>&) {
    return true;
  }
};

}  // namespace bytecache::util
