#include "cache/host_budget.h"

namespace bytecache::cache {

HostEntry* HostLedger::obtain(std::uint64_t host_key) {
  if (HostEntry* e = map_.find(host_key)) return e;
  map_.put(host_key, HostEntry{});
  return map_.find(host_key);
}

void HostLedger::release_if_idle(std::uint64_t host_key) {
  const HostEntry* e = map_.find(host_key);
  if (e != nullptr && e->bytes == 0 && e->chain.head == kNilSlot) {
    map_.erase(host_key);
  }
}

}  // namespace bytecache::cache
