#include "cache/slice_arena.h"

#include <bit>
#include <new>

#include "util/check.h"
#include "util/huge_pages.h"

namespace bytecache::cache {

thread_local SliceArena::TestHooks SliceArena::test_hooks;

SliceArena::~SliceArena() {
  for (const Area& a : areas_) {
    util::huge_free(a.base, kAreaBytes);
    ++test_hooks.areas_freed;
  }
}

std::uint8_t SliceArena::class_of(std::size_t n) {
  BC_CHECK(n > 0 && n <= kMaxSlice)
      << "no size class for " << n << " bytes";
  const std::size_t needed = n < kMinSlice ? kMinSlice : std::bit_ceil(n);
  return static_cast<std::uint8_t>(
      std::countr_zero(needed / kMinSlice));
}

void SliceArena::grow_bookkeeping() {
  if (test_hooks.fail_bookkeeping > 0 &&
      --test_hooks.fail_bookkeeping == 0) {
    throw std::bad_alloc();
  }
  areas_.reserve(areas_.size() + 1);
}

void SliceArena::carve_area(std::uint8_t cls) {
  // Bookkeeping first: if the vector growth throws here, nothing has
  // been allocated yet.  The former order — allocate, then a
  // possibly-throwing push_back — leaked the fresh area on growth
  // failure, because ~SliceArena only frees *recorded* areas.
  grow_bookkeeping();
  void* mem = util::huge_alloc(kAreaBytes);
  ++test_hooks.areas_allocated;
  // Cannot throw: capacity was reserved above.
  areas_.push_back(Area{static_cast<std::uint8_t*>(mem), cls});
  const std::size_t size = class_size(cls);
  const std::size_t count = kAreaBytes / size;
  auto* base = static_cast<std::uint8_t*>(mem);
  // Push in reverse so the freelist pops slices in address order — the
  // first allocations after a carve walk the area sequentially, which is
  // the friendliest pattern for the huge-page fault-in.
  for (std::size_t i = count; i-- > 0;) {
    auto* fs = reinterpret_cast<FreeSlice*>(base + i * size);
    fs->next = free_lists_[cls];
    free_lists_[cls] = fs;
  }
  carved_ += count;
}

SliceArena::Slice SliceArena::alloc(std::size_t n) {
  if (n == 0) return Slice{};
  if (n > kMaxSlice) {
    // Oversize fallback, cold by construction: the codec never caches a
    // payload past its 16-bit wire limit, so only direct PacketStore
    // users (tests) reach this.  NOLINT(bc-hotpath-alloc)
    return Slice{new std::uint8_t[n], kHeapClass};
  }
  const std::uint8_t cls = class_of(n);
  if (free_lists_[cls] == nullptr) carve_area(cls);
  FreeSlice* fs = free_lists_[cls];
  free_lists_[cls] = fs->next;
  ++live_;
  return Slice{reinterpret_cast<std::uint8_t*>(fs), cls};
}

void SliceArena::free(Slice s) {
  if (s.data == nullptr) return;
  if (s.cls == kHeapClass) {
    delete[] s.data;
    return;
  }
  BC_CHECK(s.cls < kClasses) << "freeing slice of unknown class "
                             << static_cast<int>(s.cls);
  auto* fs = reinterpret_cast<FreeSlice*>(s.data);
  fs->next = free_lists_[s.cls];
  free_lists_[s.cls] = fs;
  --live_;
}

void SliceArena::audit() const {
  if (!util::kAuditEnabled) return;
  std::size_t free_count = 0;
  for (std::size_t cls = 0; cls < kClasses; ++cls) {
    const std::size_t size = class_size(static_cast<std::uint8_t>(cls));
    for (const FreeSlice* fs = free_lists_[cls]; fs != nullptr;
         fs = fs->next) {
      ++free_count;
      BC_AUDIT(free_count <= carved_)
          << "freelist longer than " << carved_
          << " carved slices (cycle?)";
      if (free_count > carved_) return;  // do not chase the cycle
      const auto* p = reinterpret_cast<const std::uint8_t*>(fs);
      bool inside = false;
      for (const Area& a : areas_) {
        if (a.cls != cls) continue;
        if (p >= a.base && p < a.base + kAreaBytes) {
          inside = true;
          BC_AUDIT((static_cast<std::size_t>(p - a.base) % size) == 0)
              << "freelist entry misaligned within its area";
          break;
        }
      }
      BC_AUDIT(inside) << "freelist entry of class " << cls
                       << " points outside every area of that class";
    }
  }
  BC_AUDIT(live_ + free_count == carved_)
      << live_ << " live + " << free_count << " free slices != "
      << carved_ << " carved";
}

}  // namespace bytecache::cache
