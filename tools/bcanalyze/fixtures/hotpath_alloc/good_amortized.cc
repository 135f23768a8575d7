// BC-FIXTURE: path=src/cache/fixture_amortized.cc
//
// bc-hotpath-alloc known-good: the allocation shapes the data plane is
// built on.  Contiguous-container growth is amortised-by-design (PR 2
// scratch reuse keeps capacity across packets), cold setup/teardown
// functions may allocate freely, and the FlatMap64 replacement for
// node maps must not fire.
#include <cstdint>
#include <memory>
#include <vector>

#include "util/flat_map.h"

namespace bytecache::cache {

struct FixtureScratch {
  std::vector<std::uint8_t> bytes;
  util::FlatMap64<std::uint32_t> index;

  void per_packet(std::uint64_t key, std::uint8_t b) {
    bytes.push_back(b);      // contiguous growth: amortised, no finding
    bytes.reserve(64);       // explicitly allowed
    index.put(key, 1);       // flat map: vector-backed, no finding
  }

  // Cold by name: setup allocating a node-based structure is fine.
  std::unique_ptr<FixtureScratch> make_scratch() {
    return std::make_unique<FixtureScratch>();  // cold path: no finding
  }

  void reset_stats() {
    bytes = std::vector<std::uint8_t>(1024);  // cold path: no finding
  }
};

}  // namespace bytecache::cache
