// Seeded English-like text generation.
//
// Builds the "ebook" style objects of the paper's Table I: natural text
// whose only redundancy is the occasional repeated phrase or sentence.
#pragma once

#include <string>

#include "util/bytes.h"
#include "util/rng.h"

namespace bytecache::workload {

/// One random sentence (words from a fixed vocabulary, 6–14 words).
[[nodiscard]] std::string make_sentence(util::Rng& rng);

/// Random printable filler (high entropy, no 16-byte repeats in practice).
[[nodiscard]] util::Bytes random_text(util::Rng& rng, std::size_t size);

}  // namespace bytecache::workload
