// Seeded input streams of the three workloads.
//
// Every stream is a pure function of its seed, built before any timing
// starts.  The program under test sees only these generated packets.
#pragma once

#include <cstdint>
#include <vector>

#include "packet/packet.h"
#include "util/bytes.h"

namespace perfbench {

namespace bc = bytecache;

/// One offered packet, as the codec sees it: `bytes` is the IP payload.
/// TCP entries hold the whole segment (header + data); UDP entries hold
/// a UDP header plus the application datagram, framed exactly as the
/// middlebox's encoder tunnel frames plain datagrams.
struct Offered {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  bool tcp = true;
  bc::util::Bytes bytes;

  /// What a plain UDP source sends for this entry when the stream is
  /// replayed through the real tunnel: the datagram for UDP entries, the
  /// whole segment for TCP ones.
  [[nodiscard]] bc::util::BytesView datagram() const;
};

struct Stream {
  std::vector<Offered> pkts;
  std::uint64_t offered_bytes = 0;  // sum of pkts[i].bytes.size()
};

/// File 1 (workload::make_file1 over `seed`, the paper's 587,567 bytes)
/// as MSS-sized segments of one TCP flow — bench_throughput's exact
/// stream when seed = 0xF11E.
[[nodiscard]] Stream make_hot_replay(std::uint64_t seed);

/// Thousands of short TCP flows (SYN, 1-3 objects, FIN, random ISN) over
/// a few hundred host pairs; half the flows reuse the 4-tuple of an
/// earlier closed flow.  Objects are Zipf-popular web pages and
/// dependency files of a few sites plus incompressible video segments.
[[nodiscard]] Stream make_churn_mix(std::uint64_t seed);

/// Plain datagrams of a few UDP sources: half 64 B messages, half
/// ~1,200 B slices of seeded redundant objects.  The first 8 bytes of
/// each datagram carry its index (the tunnel driver rewrites them with a
/// sequence number on every send).
[[nodiscard]] Stream make_tunnel_mix(std::uint64_t seed);

/// Sequence shift per replay pass: pass p of a stream is offered with
/// seq_shift = p * kPassShift, so every connection continues instead of
/// repeating its earlier segments.
inline constexpr std::uint32_t kPassShift = 0x40000000;

/// A fresh packet carrying `o`.  `seq_shift` is added to a TCP segment's
/// sequence number, so a replayed stream continues every connection
/// instead of repeating it; `uid` tags the packet for the sink.
[[nodiscard]] bc::packet::PacketPtr to_packet(const Offered& o,
                                              std::uint32_t seq_shift,
                                              std::uint64_t uid);

/// True when `payload` is byte-identical to `o` offered with `seq_shift`.
[[nodiscard]] bool same_bytes(bc::util::BytesView payload, const Offered& o,
                              std::uint32_t seq_shift);

}  // namespace perfbench
