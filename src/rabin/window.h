// Whole-payload rolling-window scanner and anchor selection.
//
// The encoder slides a w-byte window over each packet payload (paper
// Fig. 2, procedure B) and needs the fingerprint at every byte position.
// This is the single hottest loop of the data plane, so `scan` is a
// template that inlines its sink into the roll loop (one push-table and
// one out-table lookup plus XORs per byte — see rabin.h) and reads the
// outgoing byte straight from the payload instead of maintaining a ring.
#pragma once

#include <cstdint>
#include <vector>

#include "rabin/rabin.h"
#include "util/bytes.h"

namespace bytecache::rabin {

/// A selected fingerprint anchored in a payload.
struct Anchor {
  /// Offset of the *first byte* of the window within the payload.
  std::uint16_t offset;
  Fingerprint fp;

  friend bool operator==(const Anchor&, const Anchor&) = default;
};

/// Scans `payload` and invokes `sink(offset, fp)` for every full window
/// position (offset = start of window, 0-based).  Returns the number of
/// windows visited.  The sink is inlined into the roll loop; it must not
/// retain references into the scan state.
template <typename Sink>
inline std::size_t scan(const RabinTables& tables, util::BytesView payload,
                        Sink&& sink) {
  const std::size_t w = tables.window();
  const std::size_t n = payload.size();
  if (n < w) return 0;
  const std::uint8_t* p = payload.data();
  Fingerprint fp = kEmptyFingerprint;
  for (std::size_t i = 0; i < w; ++i) fp = tables.push(fp, p[i]);
  sink(std::size_t{0}, fp);
  for (std::size_t i = w; i < n; ++i) {
    fp = tables.roll(fp, p[i - w], p[i]);
    sink(i - w + 1, fp);
  }
  return n - w + 1;
}

/// Reusable buffers for the phased anchor-selection paths (kernel fill,
/// kernel classify, bit walk — see scan_kernel.h).  Encoder and Decoder
/// each own one, so steady-state selection never touches the allocator.
/// With the scalar kernel dispatched, selection runs fused (the original
/// single-pass code) and these buffers stay untouched.
struct ScanScratch {
  std::vector<Fingerprint> fps;          // per-position fingerprints
  std::vector<std::uint64_t> masks;      // selection / membership bitset
  std::vector<std::uint32_t> positions;  // SAMPLEBYTE anchor positions
};

/// Convenience: returns all *selected* anchors of `payload` (last
/// `select_bits` bits of the fingerprint are zero) — MODP value sampling,
/// the paper's scheme.  The `_into` form clears and refills `out`,
/// reusing its capacity (the encoder's per-packet scratch buffer); the
/// ScanScratch overloads additionally reuse the kernel fill buffers (the
/// scratch-less forms allocate one per call).
void selected_anchors_into(const RabinTables& tables, util::BytesView payload,
                           unsigned select_bits, std::vector<Anchor>& out);
void selected_anchors_into(const RabinTables& tables, util::BytesView payload,
                           unsigned select_bits, std::vector<Anchor>& out,
                           ScanScratch& scan);
[[nodiscard]] std::vector<Anchor> selected_anchors(const RabinTables& tables,
                                                   util::BytesView payload,
                                                   unsigned select_bits);

/// Appends (no clear) the value-sampling anchors whose window starts lie
/// in [first, last), offsets absolute in `payload`.  Requires
/// last + w - 1 <= payload.size().  Scanning a payload piecewise with
/// this yields exactly selected_anchors_into's list: a fingerprint
/// depends only on the w bytes of its window (the anchor reuse of
/// core/anchors.h rests on that).
void append_selected_anchors(const RabinTables& tables,
                             util::BytesView payload, std::size_t first,
                             std::size_t last, unsigned select_bits,
                             std::vector<Anchor>& out, ScanScratch& scan);

/// Reusable buffer for selected_anchors_maxp_into: the monotonic-maximum
/// ring of (position, fingerprint) candidates — at most p+1 entries live
/// transiently, so selection runs fused into the scan without
/// materializing a per-position fingerprint vector.
struct MaxpScratch {
  struct Candidate {
    std::uint32_t idx;
    Fingerprint fp;
  };
  std::vector<Candidate> ring;
};

/// MAXP / winnowing selection (Anand et al., SIGMETRICS 2009; Schleimer
/// et al.'s winnowing): every sliding window of `p` consecutive positions
/// contributes its maximum-fingerprint position (rightmost on ties).
/// Unlike value sampling this GUARANTEES an anchor in every p positions —
/// no unlucky gaps, and byte runs cannot go unanchored — at an expected
/// density of 2/(p+1).
void selected_anchors_maxp_into(const RabinTables& tables,
                                util::BytesView payload, std::size_t p,
                                std::vector<Anchor>& out,
                                MaxpScratch& scratch);
void selected_anchors_maxp_into(const RabinTables& tables,
                                util::BytesView payload, std::size_t p,
                                std::vector<Anchor>& out, MaxpScratch& scratch,
                                ScanScratch& scan);
[[nodiscard]] std::vector<Anchor> selected_anchors_maxp(
    const RabinTables& tables, util::BytesView payload, std::size_t p);

/// SAMPLEBYTE selection (EndRE, NSDI 2010 — the computation-saving
/// optimization the paper's Section III alludes to): a position is an
/// anchor candidate iff its first byte is in a fixed 256-entry sample
/// set (|set| = 256/period); after each anchor the scan skips `skip`
/// bytes.  Rabin fingerprints are computed ONLY at anchors (one of(w)
/// per anchor instead of one push per byte), trading a little match
/// coverage for a large CPU saving — see bench_micro_rabin.
void selected_anchors_samplebyte_into(const RabinTables& tables,
                                      util::BytesView payload, unsigned period,
                                      std::size_t skip,
                                      std::vector<Anchor>& out);
void selected_anchors_samplebyte_into(const RabinTables& tables,
                                      util::BytesView payload, unsigned period,
                                      std::size_t skip, std::vector<Anchor>& out,
                                      ScanScratch& scan);
[[nodiscard]] std::vector<Anchor> selected_anchors_samplebyte(
    const RabinTables& tables, util::BytesView payload, unsigned period,
    std::size_t skip);

}  // namespace bytecache::rabin
