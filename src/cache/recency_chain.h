// Index-linked recency chains over a slot vector: the one implementation
// behind the L1 PacketStore's LRU list, an L2 stripe's global chain, and
// the stripe's per-host-pair chains.
//
// A chain is a pair of end indices (ChainEnds) plus two link fields in
// each slot, named by member pointer, so one slot can sit on several
// chains at once (an L2 slot is on the global chain and on its pair's).
// Head = warmest, tail = coldest; kNilSlot terminates.  Victim order is
// exactly the order these operations leave, so every tier evicts the
// same way on both sides of the link.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/check.h"

namespace bytecache::cache {

inline constexpr std::uint32_t kNilSlot = 0xFFFFFFFFu;

struct ChainEnds {
  std::uint32_t head = kNilSlot;  // warmest
  std::uint32_t tail = kNilSlot;  // coldest
};

/// Pops a recycled slot index off `free`, or grows the slab by one.
template <typename Slot>
std::uint32_t acquire_slot(std::vector<Slot>& slots,
                           std::vector<std::uint32_t>& free) {
  if (!free.empty()) {
    const std::uint32_t s = free.back();
    free.pop_back();
    return s;
  }
  slots.emplace_back();
  return static_cast<std::uint32_t>(slots.size() - 1);
}

/// The chain threaded through the slot fields `Prev` / `Next`.
template <auto Prev, auto Next>
struct RecencyChain {
  template <typename Slot>
  static void push_front(std::vector<Slot>& slots, ChainEnds& ends,
                         std::uint32_t i) {
    Slot& s = slots[i];
    s.*Prev = kNilSlot;
    s.*Next = ends.head;
    if (ends.head != kNilSlot) slots[ends.head].*Prev = i;
    ends.head = i;
    if (ends.tail == kNilSlot) ends.tail = i;
  }

  template <typename Slot>
  static void push_back(std::vector<Slot>& slots, ChainEnds& ends,
                        std::uint32_t i) {
    Slot& s = slots[i];
    s.*Next = kNilSlot;
    s.*Prev = ends.tail;
    if (ends.tail != kNilSlot) slots[ends.tail].*Next = i;
    ends.tail = i;
    if (ends.head == kNilSlot) ends.head = i;
  }

  template <typename Slot>
  static void unlink(std::vector<Slot>& slots, ChainEnds& ends,
                     std::uint32_t i) {
    Slot& s = slots[i];
    if (s.*Prev != kNilSlot) slots[s.*Prev].*Next = s.*Next;
    if (s.*Next != kNilSlot) slots[s.*Next].*Prev = s.*Prev;
    if (ends.head == i) ends.head = s.*Next;
    if (ends.tail == i) ends.tail = s.*Prev;
    s.*Prev = s.*Next = kNilSlot;
  }

  /// Moves `i` to the head (a recency refresh); no-op if already there.
  template <typename Slot>
  static void touch(std::vector<Slot>& slots, ChainEnds& ends,
                    std::uint32_t i) {
    if (ends.head == i) return;
    unlink(slots, ends, i);
    push_front(slots, ends, i);
  }

  /// Deep check (BC_AUDIT; no-op unless the build enables audits):
  /// walks head to tail requiring every node to be live and back-linked
  /// to its predecessor, and the tail to end the walk.  `visit(i, slot)`
  /// runs once per node for the owner's own checks.  Returns the number
  /// of nodes walked.
  template <typename Slot, typename Visit>
  static std::size_t audit(const std::vector<Slot>& slots,
                           const ChainEnds& ends, std::string_view chain,
                           Visit&& visit) {
    if (!util::kAuditEnabled) return 0;
    std::size_t nodes = 0;
    std::uint32_t prev = kNilSlot;
    for (std::uint32_t i = ends.head; i != kNilSlot; i = slots[i].*Next) {
      const Slot& s = slots[i];
      BC_AUDIT(s.live) << chain << " reaches freed slot " << i;
      BC_AUDIT(s.*Prev == prev)
          << chain << " slot " << i << " back-link " << s.*Prev
          << " does not match predecessor " << prev;
      visit(i, s);
      ++nodes;
      prev = i;
    }
    BC_AUDIT(ends.tail == prev)
        << chain << " tail " << ends.tail << " does not terminate the chain ("
        << prev << ")";
    return nodes;
  }
};

}  // namespace bytecache::cache
