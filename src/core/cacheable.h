// Which packets take part in the cache.
//
// The encoder's cache-update procedure (paper Fig. 2 C) runs on data
// packets only, and the decoder must cache exactly the same packets or
// the two stores drift apart: a packet one side caches and the other
// does not shifts that side's byte budget, and the two start evicting
// different packets.  This is the one rule both codecs call.
#pragma once

#include <cstddef>

#include "packet/packet.h"
#include "packet/tcp.h"

namespace bytecache::core {

/// True if `pkt`'s payload is cached (and, at the encoder, encodable):
/// it holds at least one `window`-byte window, fits the 16-bit offsets,
/// and — for TCP — carries data past a header the codec can parse.
/// Header-only TCP segments (SYN, FIN, pure ACKs) are forwarded uncached
/// on both sides.
[[nodiscard]] inline bool cacheable_payload(const packet::Packet& pkt,
                                            std::size_t window) {
  const std::size_t n = pkt.payload.size();
  if (n < window || n > 0xFFFF) return false;
  if (pkt.proto() != packet::IpProto::kTcp) return true;
  return n > packet::TcpHeader::kSize &&
         packet::TcpHeader::parse_unchecked(pkt.payload).has_value();
}

}  // namespace bytecache::core
