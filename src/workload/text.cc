#include "workload/text.h"

#include <array>

namespace bytecache::workload {
namespace {

// A compact vocabulary; sentence diversity comes from combinatorics.
constexpr std::array<const char*, 96> kWords = {
    "the",      "of",       "and",      "to",        "in",       "a",
    "is",       "that",     "was",      "for",       "it",       "with",
    "as",       "his",      "on",       "be",        "at",       "by",
    "had",      "not",      "are",      "but",       "from",     "or",
    "have",     "an",       "they",     "which",     "one",      "you",
    "were",     "her",      "all",      "she",       "there",    "would",
    "their",    "we",       "him",      "been",      "has",      "when",
    "who",      "will",     "more",     "no",        "if",       "out",
    "network",  "packet",   "wireless", "caching",   "traffic",  "mobile",
    "data",     "signal",   "channel",  "station",   "carrier",  "antenna",
    "spectrum", "protocol", "gateway",  "encoder",   "decoder",  "latency",
    "window",   "stream",   "segment",  "transfer",  "storage",  "content",
    "morning",  "evening",  "journey",  "mountain",  "river",    "village",
    "garden",   "winter",   "summer",   "captain",   "doctor",   "letter",
    "silence",  "shadow",   "whisper",  "thunder",   "harvest",  "lantern",
    "voyage",   "meadow",   "orchard",  "twilight",  "ember",    "frost",
};

}  // namespace

std::string make_sentence(util::Rng& rng) {
  const std::size_t words = 6 + rng.uniform(0, 8);
  std::string s;
  for (std::size_t i = 0; i < words; ++i) {
    std::string w = kWords[rng.uniform(0, kWords.size() - 1)];
    if (i == 0) w[0] = static_cast<char>(w[0] - 'a' + 'A');
    s += w;
    s += (i + 1 == words) ? ". " : " ";
  }
  return s;
}

util::Bytes random_text(util::Rng& rng, std::size_t size) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 .,;:!?";
  util::Bytes out;
  out.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    out.push_back(static_cast<std::uint8_t>(
        kAlphabet[rng.uniform(0, sizeof(kAlphabet) - 2)]));
  }
  return out;
}

}  // namespace bytecache::workload
