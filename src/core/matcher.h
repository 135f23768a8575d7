// Redundant-region verification and boundary expansion.
//
// A selected fingerprint that hits the cache only *suggests* a repeat —
// different strings can share a Rabin fingerprint (paper Section III-A),
// so the w bytes are compared first; the match is then grown in both
// directions to the maximal repeated region ("DETERMINE boundaries and
// length len of repeated area surrounding w", Fig. 2 line B.7).  Growth
// compares 8 bytes per step (XOR of two unaligned loads; a zero-bit
// count finds the first differing byte) and finishes the last < 8 bytes
// one at a time, so the result is exactly the byte-by-byte one.
#pragma once

#include <cstdint>
#include <optional>

#include "util/bytes.h"

namespace bytecache::core {

/// A verified maximal match between the new payload and a stored payload.
struct Match {
  std::size_t new_begin = 0;
  std::size_t stored_begin = 0;
  std::size_t length = 0;
};

/// Verifies that `window` bytes starting at new_off / stored_off are equal
/// and expands left/right as far as both payloads agree.
///
/// `min_new_begin` bounds the left expansion in the new payload so regions
/// never overlap an already-emitted region (the encoder's pointer skip).
/// Returns nullopt if the windows differ (fingerprint collision).
[[nodiscard]] std::optional<Match> expand_match(
    util::BytesView pnew, std::size_t new_off, util::BytesView stored,
    std::size_t stored_off, std::size_t window, std::size_t min_new_begin);

}  // namespace bytecache::core
