// Anchor computation shared by the encoder and decoder.
//
// Both gateways MUST derive identical anchors from identical payload
// bytes — the cache-update procedures stay in lockstep only then — so the
// selection scheme lives in DreParams and this helper is the single place
// that interprets it.
//
// Anchor reuse (DESIGN.md §15): under value sampling an anchor depends
// only on the w bytes of its window, so the windows lying wholly inside a
// region copied from a cached packet are that packet's anchors, shifted.
// The codecs assemble a payload's anchor set from scanned gaps
// (scan_anchors) and copied interiors (CachedPacket::copy_anchors); the
// result is exactly compute_anchors', which audit builds check.
#pragma once

#include <vector>

#include "core/params.h"
#include "rabin/window.h"
#include "util/bytes.h"
#include "util/check.h"

namespace bytecache::core {

/// Reusable per-codec anchor buffers: the output vector, the MAXP
/// selection scratch, and the SIMD scan-kernel fill buffers.  Encoder
/// and Decoder each own one, so steady-state anchor computation never
/// touches the allocator.
struct AnchorWorkspace {
  std::vector<rabin::Anchor> anchors;
  rabin::MaxpScratch maxp;
  rabin::ScanScratch scan;
};

/// Fills `ws.anchors` with the payload's selected anchors and returns a
/// reference to it.  The reference is invalidated by the next call with
/// the same workspace.
inline const std::vector<rabin::Anchor>& compute_anchors(
    const rabin::RabinTables& tables, util::BytesView payload,
    const DreParams& params, AnchorWorkspace& ws) {
  switch (params.select_mode) {
    case SelectMode::kMaxp:
      rabin::selected_anchors_maxp_into(tables, payload, params.maxp_p,
                                        ws.anchors, ws.maxp, ws.scan);
      return ws.anchors;
    case SelectMode::kSampleByte:
      rabin::selected_anchors_samplebyte_into(tables, payload,
                                              params.samplebyte_period,
                                              params.samplebyte_skip,
                                              ws.anchors, ws.scan);
      return ws.anchors;
    case SelectMode::kValueSampling:
      break;
  }
  rabin::selected_anchors_into(tables, payload, params.select_bits,
                               ws.anchors, ws.scan);
  return ws.anchors;
}

/// True when a copied region may take its anchors from its cached
/// source.  Value sampling decides each position from its own window;
/// MAXP (a maximum over p neighbouring positions) and SAMPLEBYTE (a skip
/// walk from the previous anchor) are position-dependent and rescan.
[[nodiscard]] constexpr bool anchors_reusable(const DreParams& params) {
  return params.select_mode == SelectMode::kValueSampling;
}

/// Appends to `ws.anchors` the anchors whose window starts lie in
/// [first, last), scanning only the bytes those windows cover.  Reusable
/// select modes only (see anchors_reusable).
inline void scan_anchors(const rabin::RabinTables& tables,
                         util::BytesView payload, std::size_t first,
                         std::size_t last, const DreParams& params,
                         AnchorWorkspace& ws) {
  rabin::append_selected_anchors(tables, payload, first, last,
                                 params.select_bits, ws.anchors, ws.scan);
}

/// Audit builds: holds an anchor list assembled by reuse to the full
/// scan of `payload` (BC_AUDIT; `scratch` is the comparison workspace).
inline void audit_reused_anchors(const rabin::RabinTables& tables,
                                 util::BytesView payload,
                                 const DreParams& params,
                                 const std::vector<rabin::Anchor>& built,
                                 AnchorWorkspace& scratch) {
  if (!util::kAuditEnabled) return;
  const std::vector<rabin::Anchor>& full =
      compute_anchors(tables, payload, params, scratch);
  BC_AUDIT(built == full)
      << "reused anchor list (" << built.size()
      << " anchors) differs from the full scan (" << full.size()
      << " anchors) of a " << payload.size() << "-byte payload";
}

/// By-value convenience for callers without a long-lived workspace
/// (tests, one-shot analysis); the codecs use the workspace form.
[[nodiscard]] inline std::vector<rabin::Anchor> compute_anchors(
    const rabin::RabinTables& tables, util::BytesView payload,
    const DreParams& params) {
  AnchorWorkspace ws;
  compute_anchors(tables, payload, params, ws);
  return std::move(ws.anchors);
}

}  // namespace bytecache::core
