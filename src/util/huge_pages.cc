#include "util/huge_pages.h"

#include <cstdint>
#include <cstdlib>

#ifdef __linux__
#include <sys/mman.h>
#endif

namespace bytecache::util {

namespace {

std::size_t whole_huge_pages(std::size_t bytes) {
  return (bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
}

}  // namespace

void* huge_alloc(std::size_t bytes) {
  const std::size_t rounded = whole_huge_pages(bytes);
#ifdef __linux__
  // Map one huge page extra, then unmap the slack on either side of the
  // 2 MiB-aligned block.
  const std::size_t span = rounded + kHugePageBytes;
  void* raw = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) throw std::bad_alloc();
  const auto base = reinterpret_cast<std::uintptr_t>(raw);
  const std::uintptr_t begin =
      (base + kHugePageBytes - 1) & ~std::uintptr_t{kHugePageBytes - 1};
  const std::uintptr_t end = begin + rounded;
  if (begin > base) (void)munmap(raw, begin - base);
  if (base + span > end) {
    (void)munmap(reinterpret_cast<void*>(end), base + span - end);
  }
  void* mem = reinterpret_cast<void*>(begin);
  // Advisory: a kernel without THP support just ignores it.
  (void)madvise(mem, rounded, MADV_HUGEPAGE);
  return mem;
#else
  void* mem = std::aligned_alloc(kHugePageBytes, rounded);
  if (mem == nullptr) throw std::bad_alloc();
  return mem;
#endif
}

void huge_free(void* p, std::size_t bytes) noexcept {
#ifdef __linux__
  if (p != nullptr) (void)munmap(p, whole_huge_pages(bytes));
#else
  (void)bytes;
  std::free(p);
#endif
}

}  // namespace bytecache::util
