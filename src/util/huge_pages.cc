#include "util/huge_pages.h"

#include <cstdlib>

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace bytecache::util {

void* huge_alloc(std::size_t bytes) {
  const std::size_t rounded =
      (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
  void* mem = std::aligned_alloc(kHugePageBytes, rounded);
  if (mem == nullptr) throw std::bad_alloc();
#ifdef __linux__
  // Advisory: a kernel without THP support just ignores it.
  (void)madvise(mem, rounded, MADV_HUGEPAGE);
#endif
  return mem;
}

void huge_free(void* p) noexcept { std::free(p); }

}  // namespace bytecache::util
