// The per-layer ledger of a traced run.
//
// Replays a workload's stream through one in-process codec pair per
// shard (the same per-shard packet sequences and cache geometry as the
// sharded gateways, so the codec counters equal the gateways' own),
// captures every payload at the layer boundaries, and then times each
// layer's public entry points in isolation over the captured data:
//
//   rabin   core::compute_anchors over encoder- and decoder-side payloads
//   util    util::crc32 over the original payloads
//   core    Encoder::process / Decoder::process per packet, wire
//           serialize_into / parse_into over the captured encoded forms
//   cache   a shadow cache::CacheTier fed the encoder's probe/resolve/
//           update sequence
//   fec     fec::RepairEncoder::add_member over the captured wire images
//
// core.unattributed_ns_per_pkt is encode+decode time minus the isolated
// layer times: the match-expansion, reconstruct and policy remainder.
#pragma once

#include "core/factory.h"
#include "report.h"
#include "streams.h"

namespace perfbench {

/// Adds every rabin.*, util.*, core.*, cache.* and fec.* metric to `r`.
/// `budget_s` bounds the time spent (the isolated timings repeat until
/// each has run for a share of it).
void run_ledger(const Stream& s, const bytecache::core::GatewayConfig& cfg,
                double budget_s, Report& r);

}  // namespace perfbench
