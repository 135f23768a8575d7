#include "rabin/window.h"

#include <array>
#include <bit>

#include "rabin/scan_kernel.h"
#include "util/rng.h"

namespace bytecache::rabin {

// The selection functions below have two code paths with pinned-identical
// output (tests/simd_kernel_test.cc) — except MAXP, which always runs
// fused (see the comment in selected_anchors_maxp_into):
//   scalar kernel  the original fused single pass — scan() inlines the
//                  selection into the roll loop.  This is the oracle and
//                  the BYTECACHE_DISABLE_SIMD=1 fallback.
//   SIMD kernels   phases: the dispatched kernel fills a per-position
//                  fingerprint array (K independent lanes, each warmed
//                  up from scratch so lane values are bit-identical to
//                  the serial roll), classifies the positions into mask
//                  words, and the set bits are walked in order.
//                  Selection decouples from the byte-serial hash exactly
//                  as in Anand et al. (SIGMETRICS 2009), which is what
//                  makes the split pay.

void selected_anchors_into(const RabinTables& tables, util::BytesView payload,
                           unsigned select_bits, std::vector<Anchor>& out,
                           ScanScratch& scan_ws) {
  out.clear();
  // Expected yield is one anchor per 2^select_bits positions; the small
  // slack keeps a typical MSS payload from ever reallocating.
  out.reserve((payload.size() >> select_bits) + 8);
  const std::size_t w = tables.window();
  if (payload.size() < w) return;
  append_selected_anchors(tables, payload, 0, payload.size() - w + 1,
                          select_bits, out, scan_ws);
}

void append_selected_anchors(const RabinTables& tables,
                             util::BytesView payload, std::size_t first,
                             std::size_t last, unsigned select_bits,
                             std::vector<Anchor>& out, ScanScratch& scan_ws) {
  if (first >= last) return;
  const std::size_t w = tables.window();
  // The windows starting in [first, last) cover exactly these bytes; a
  // fingerprint depends only on its window, so scanning the sub-span
  // yields the same values as a scan of the whole payload.
  const util::BytesView span = payload.subspan(first, last - first + w - 1);
  const ScanKernel& kernel = scan_kernel();
  if (kernel.kind == ScanKernelKind::kScalar) {
    scan(tables, span, [&](std::size_t off, Fingerprint fp) {
      if (selected(fp, select_bits)) {
        out.push_back(Anchor{static_cast<std::uint16_t>(first + off), fp});
      }
    });
    return;
  }
  const std::size_t positions = last - first;
  const std::size_t words = (positions + 63) / 64;
  scan_ws.fps.resize(positions);
  scan_ws.masks.resize(words);
  kernel.fill_fingerprints(tables, span.data(), span.size(),
                           scan_ws.fps.data());
  kernel.select_mask(scan_ws.fps.data(), positions, select_bits,
                     scan_ws.masks.data());
  const Fingerprint* fps = scan_ws.fps.data();
  for (std::size_t word = 0; word < words; ++word) {
    for (std::uint64_t m = scan_ws.masks[word]; m != 0; m &= m - 1) {
      const std::size_t i =
          (word << 6) + static_cast<std::size_t>(std::countr_zero(m));
      out.push_back(Anchor{static_cast<std::uint16_t>(first + i), fps[i]});
    }
  }
}

void selected_anchors_into(const RabinTables& tables, util::BytesView payload,
                           unsigned select_bits, std::vector<Anchor>& out) {
  ScanScratch scan_ws;
  selected_anchors_into(tables, payload, select_bits, out, scan_ws);
}

std::vector<Anchor> selected_anchors(const RabinTables& tables,
                                     util::BytesView payload,
                                     unsigned select_bits) {
  std::vector<Anchor> out;
  selected_anchors_into(tables, payload, select_bits, out);
  return out;
}

namespace {

// The MAXP monotonic-queue step, shared verbatim by the fused and
// two-phase paths so their selection logic cannot drift.  See the block
// comment in selected_anchors_maxp_into for the queue invariants.
struct MaxpQueue {
  MaxpScratch::Candidate* ring;
  std::size_t mask;
  std::size_t p;
  std::size_t head = 0, tail = 0;  // queue occupies [head, tail)
  static constexpr std::uint32_t kNoneEmitted = 0xFFFFFFFFu;
  std::uint32_t last_emitted = kNoneEmitted;

  void step(std::size_t i, Fingerprint fp, std::vector<Anchor>& out) {
    while (head != tail && ring[(tail - 1) & mask].fp <= fp) --tail;
    ring[tail & mask] =
        MaxpScratch::Candidate{static_cast<std::uint32_t>(i), fp};
    ++tail;
    if (ring[head & mask].idx + p <= i) ++head;
    if (i + 1 >= p && ring[head & mask].idx != last_emitted) {
      last_emitted = ring[head & mask].idx;
      out.push_back(Anchor{static_cast<std::uint16_t>(last_emitted),
                           ring[head & mask].fp});
    }
  }
};

}  // namespace

void selected_anchors_maxp_into(const RabinTables& tables,
                                util::BytesView payload, std::size_t p,
                                std::vector<Anchor>& out, MaxpScratch& scratch,
                                ScanScratch& scan_ws) {
  out.clear();
  const std::size_t w = tables.window();
  if (payload.size() < w || p == 0) return;
  const std::size_t positions = payload.size() - w + 1;
  out.reserve(2 * positions / (p + 1) + 8);  // expected density 2/(p+1)

  // Sliding-window maximum via a monotonic queue of candidates (front =
  // current maximum; rightmost wins ties for content-defined stability).
  // The queue lives in a power-of-two ring indexed by monotone head/tail
  // counters — no deque, no modulo.  It transiently holds p+1 entries
  // (the new candidate is pushed before the expired front is evicted),
  // so the ring must be sized for p+1 or a power-of-two p would
  // overwrite the live front on push.  Each window [i-p+1, i] emits its
  // argmax; consecutive windows usually share it, so duplicates are
  // skipped.
  std::vector<MaxpScratch::Candidate>& ring = scratch.ring;
  const std::size_t cap = std::bit_ceil(p + 1);
  if (ring.size() < cap) ring.resize(cap);
  MaxpQueue queue{ring.data(), cap - 1, p};

  // MAXP stays fused under EVERY kernel tier: the monotonic-queue step
  // is branch-heavy (its mispredictions dominate) and overlaps the roll
  // loop's load-latency chain essentially for free, so a separate
  // kernel-fill pass was measured net SLOWER (the fill win is smaller
  // than the cost of running the queue as a second serial pass) — see
  // bench_micro_rabin's BM_SelectedAnchorsMaxp vs ...MaxpScalar.
  (void)scan_ws;
  scan(tables, payload, [&](std::size_t i, Fingerprint fp) {
    queue.step(i, fp, out);
  });
}

void selected_anchors_maxp_into(const RabinTables& tables,
                                util::BytesView payload, std::size_t p,
                                std::vector<Anchor>& out,
                                MaxpScratch& scratch) {
  ScanScratch scan_ws;
  selected_anchors_maxp_into(tables, payload, p, out, scratch, scan_ws);
}

std::vector<Anchor> selected_anchors_maxp(const RabinTables& tables,
                                          util::BytesView payload,
                                          std::size_t p) {
  std::vector<Anchor> out;
  MaxpScratch scratch;
  selected_anchors_maxp_into(tables, payload, p, out, scratch);
  return out;
}

namespace {

// SAMPLEBYTE's fixed sample set: byte values whose mixed hash lands in
// 1/period of the space.  Content-independent, so both gateways agree.
// Built as a 256-bit membership bitmap: the scan then tests one bit per
// position instead of paying a 64-bit mix and division per byte.
std::array<std::uint64_t, 4> samplebyte_set(unsigned period) {
  std::array<std::uint64_t, 4> sampled{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint64_t state = b;
    if (util::splitmix64(state) % period == 0) {
      sampled[b >> 6] |= std::uint64_t{1} << (b & 63u);
    }
  }
  return sampled;
}

// Rebuilding the bitmap is 256 hash+divide rounds — measured at roughly
// a third of the whole SAMPLEBYTE cost on an MSS payload — and a codec
// uses one period for its lifetime, so cache the last set per thread.
// (period is validated non-zero by the caller, so 0 is a safe "empty"
// sentinel.)
const std::array<std::uint64_t, 4>& samplebyte_set_cached(unsigned period) {
  thread_local unsigned cached_period = 0;
  thread_local std::array<std::uint64_t, 4> cached{};
  if (cached_period != period) {
    cached = samplebyte_set(period);
    cached_period = period;
  }
  return cached;
}

}  // namespace

void selected_anchors_samplebyte_into(const RabinTables& tables,
                                      util::BytesView payload, unsigned period,
                                      std::size_t skip,
                                      std::vector<Anchor>& out,
                                      ScanScratch& scan_ws) {
  out.clear();
  const std::size_t w = tables.window();
  if (payload.size() < w || period == 0) return;
  out.reserve(payload.size() / (period * (skip > 0 ? skip : 1)) + 8);
  const std::array<std::uint64_t, 4>& sampled = samplebyte_set_cached(period);
  const ScanKernel& kernel = scan_kernel();
  if (kernel.kind == ScanKernelKind::kScalar) {
    for (std::size_t i = 0; i + w <= payload.size();) {
      const std::uint8_t b = payload[i];
      if ((sampled[b >> 6] >> (b & 63u)) & 1u) {
        out.push_back(Anchor{static_cast<std::uint16_t>(i),
                             tables.of(payload.subspan(i, w))});
        i += skip > 0 ? skip : 1;
      } else {
        ++i;
      }
    }
    return;
  }

  // Phase 1: membership bits for every byte, 32 at a time under AVX2.
  const std::size_t n = payload.size();
  const std::uint8_t* p = payload.data();
  scan_ws.masks.resize((n + 63) / 64);
  kernel.member_mask(sampled, p, n, scan_ws.masks.data());

  // Phase 2: the skip walk.  Jumping to the next set bit visits exactly
  // the positions the scalar loop's `++i` path would have tested and
  // rejected, so the anchor sequence is identical.
  const std::size_t limit = n - w;  // last valid anchor position
  const std::size_t last_word = limit >> 6;
  scan_ws.positions.clear();
  std::size_t i = 0;
  while (i <= limit) {
    std::size_t word = i >> 6;
    std::uint64_t m = scan_ws.masks[word] & (~std::uint64_t{0} << (i & 63u));
    while (m == 0 && word < last_word) m = scan_ws.masks[++word];
    if (m == 0) break;
    i = (word << 6) + static_cast<std::size_t>(std::countr_zero(m));
    if (i > limit) break;
    scan_ws.positions.push_back(static_cast<std::uint32_t>(i));
    i += skip > 0 ? skip : 1;
  }

  // Phase 3: from-scratch fingerprints at the anchors, four interleaved
  // lanes.  Each lane runs the exact push sequence of(w) runs, so the
  // per-anchor values are bit-identical; this is where SAMPLEBYTE spends
  // nearly all its time (one of(w) per anchor), and the lanes are fully
  // independent.
  const std::size_t count = scan_ws.positions.size();
  const std::uint32_t* pos = scan_ws.positions.data();
  std::size_t a = 0;
  for (; a + 4 <= count; a += 4) {
    const std::uint8_t* q0 = p + pos[a];
    const std::uint8_t* q1 = p + pos[a + 1];
    const std::uint8_t* q2 = p + pos[a + 2];
    const std::uint8_t* q3 = p + pos[a + 3];
    Fingerprint f0 = kEmptyFingerprint, f1 = kEmptyFingerprint;
    Fingerprint f2 = kEmptyFingerprint, f3 = kEmptyFingerprint;
    for (std::size_t j = 0; j < w; ++j) {
      f0 = tables.push(f0, q0[j]);
      f1 = tables.push(f1, q1[j]);
      f2 = tables.push(f2, q2[j]);
      f3 = tables.push(f3, q3[j]);
    }
    out.push_back(Anchor{static_cast<std::uint16_t>(pos[a]), f0});
    out.push_back(Anchor{static_cast<std::uint16_t>(pos[a + 1]), f1});
    out.push_back(Anchor{static_cast<std::uint16_t>(pos[a + 2]), f2});
    out.push_back(Anchor{static_cast<std::uint16_t>(pos[a + 3]), f3});
  }
  for (; a < count; ++a) {
    out.push_back(Anchor{static_cast<std::uint16_t>(pos[a]),
                         tables.of(payload.subspan(pos[a], w))});
  }
}

void selected_anchors_samplebyte_into(const RabinTables& tables,
                                      util::BytesView payload, unsigned period,
                                      std::size_t skip,
                                      std::vector<Anchor>& out) {
  ScanScratch scan_ws;
  selected_anchors_samplebyte_into(tables, payload, period, skip, out,
                                   scan_ws);
}

std::vector<Anchor> selected_anchors_samplebyte(const RabinTables& tables,
                                                util::BytesView payload,
                                                unsigned period,
                                                std::size_t skip) {
  std::vector<Anchor> out;
  selected_anchors_samplebyte_into(tables, payload, period, skip, out);
  return out;
}

}  // namespace bytecache::rabin
