// BC-FIXTURE: path=src/packet/fixture_guard_idioms.cc
//
// bc-wire-bounds known-good: the guard idioms the rule must accept.
// A size early-exit (core/wire.cc), reads under the guard's own
// short-circuit, a `have(n)` remaining-length lambda, guards inside loop
// bodies, and delegation to another parse_* function that did the
// checking (packet/tcp.cc).
#include <cstdint>
#include <optional>

#include "util/bytes.h"

namespace bytecache::packet {

struct FixtureHdr {
  std::uint16_t magic = 0;
  std::uint32_t len = 0;
  static constexpr std::size_t kWireBytes = 6;
};

std::optional<FixtureHdr> parse_early_exit(util::BytesView wire) {
  if (wire.size() < FixtureHdr::kWireBytes) return std::nullopt;
  std::size_t off = 0;
  FixtureHdr h;
  h.magic = util::get_u16(wire, off);  // dominated: no finding
  h.len = util::get_u32(wire, off);
  return h;
}

bool parse_have_lambda(util::BytesView wire) {
  std::size_t off = 0;
  auto have = [&](std::size_t n) { return wire.size() - off >= n; };
  if (!have(2) || util::get_u16(wire, off) != 0xD6) return false;
  while (have(4)) {
    if (util::get_u32(wire, off) == 0) break;  // guarded by loop header
  }
  return true;
}

std::uint32_t parse_delegated(util::BytesView wire) {
  auto h = parse_early_exit(wire);
  if (!h) return 0;
  std::size_t off = 2;
  return util::get_u32(wire, off);  // parse_early_exit proved 6 bytes
}

std::uint32_t parse_guard_in_loop(util::BytesView wire, std::size_t n) {
  std::size_t off = 0;
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (wire.size() - off < 4) return sum;
    sum += util::get_u32(wire, off);  // guarded within the iteration
  }
  return sum;
}

}  // namespace bytecache::packet
