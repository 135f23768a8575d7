// BC-FIXTURE: path=src/core/fixture_subscript_grow.cc
//
// bc-hotpath-alloc known-bad: subscripting a node-based map inserts the
// key when it is missing, so `m[k]` on the per-packet path costs one
// heap node per new key.  Modelled on the per-flow sequence trackers and
// the per-host-pair loss table that held this shape on the encode path
// before the checker knew about operator[].  Covers a member receiver, a
// parameter receiver reached only transitively, and a member of a
// member; the negatives are subscripts of contiguous storage (vector,
// array) and a map subscript in a cold function.
#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

namespace bytecache::core {

struct FixtureFlowTracker {
  std::unordered_map<std::uint64_t, std::uint32_t> last_seen;
  std::vector<std::uint32_t> slots;
  std::uint32_t ring[8] = {};

  bool before_encode(std::uint64_t flow, std::uint32_t value) {
    const bool seen = last_seen.count(flow) != 0;
    last_seen[flow] = value;  // EXPECT(bc-hotpath-alloc)
    slots[flow & 7] = value;  // vector: contiguous, no finding
    ring[flow & 7] = value;   // array: no finding
    return seen;
  }

  // Cold by name: setup and diagnostics may grow a node map.
  void reset_stats() { last_seen[0] = 0; }
};

// The helper allocates, not its caller: the finding lands on the helper
// with the chain from the per-packet root in the message.
bool fixture_observe(std::map<std::uint64_t, std::uint32_t>& seen,
                     std::uint64_t key) {
  return seen[key]++ == 0;  // EXPECT(bc-hotpath-alloc)
}

bool fixture_classify(std::map<std::uint64_t, std::uint32_t>& seen,
                      std::uint64_t key) {
  return fixture_observe(seen, key);
}

struct FixturePairTable {
  std::unordered_map<std::uint64_t, double> loss;
};

struct FixtureLadder {
  FixturePairTable table;

  void on_offered(std::uint64_t pair) {
    table.loss[pair] *= 0.95;  // EXPECT(bc-hotpath-alloc)
  }
};

}  // namespace bytecache::core
