// BC-FIXTURE: path=src/gateway/fixture_burst.cc
//
// bc-hotpath-alloc known-bad for the burst data plane: the burst entry
// points (receive_burst / push_burst / pop_burst / probe_batch and
// friends) are hot roots *by name*, wherever they live — a gateway
// is not a blanket root directory, so without the name-based roots an
// allocation behind receive_burst would go unreported.  Covers a
// node-map growth inside the burst function itself, a transitive
// make_unique through a per-packet helper, and the negative case: an
// allocating gateway function that is NOT a burst root (and is not
// reached from one) must stay silent even though the file now sits in
// a site directory.
#include <cstdint>
#include <map>
#include <memory>

namespace bytecache::gateway {

struct FixtureBurstGateway {
  std::map<std::uint64_t, std::uint64_t> per_flow_counts;

  void deliver_one(std::uint64_t flow) {
    per_flow_counts.emplace(flow, 1);  // EXPECT(bc-hotpath-alloc)
  }

  void receive_burst(const std::uint64_t* flows, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) deliver_one(flows[i]);
  }

  std::unique_ptr<std::uint64_t> probe_batch(std::uint64_t fp) {
    return std::make_unique<std::uint64_t>(fp);  // EXPECT(bc-hotpath-alloc)
  }

  // NOT a burst root and reached by none of them: gateway setup code may
  // allocate freely — no finding despite living in a site directory.
  std::uint64_t* start_worker(std::uint64_t id) {
    return new std::uint64_t(id);
  }
};

}  // namespace bytecache::gateway
