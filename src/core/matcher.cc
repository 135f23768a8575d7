#include "core/matcher.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>

namespace bytecache::core {

namespace {

constexpr std::size_t kWord = sizeof(std::uint64_t);
constexpr bool kLittleEndian = std::endian::native == std::endian::little;

std::uint64_t load_word(const std::uint8_t* p) {
  std::uint64_t v;
  std::memcpy(&v, p, kWord);
  return v;
}

/// Equal bytes at the low-address end of two words whose XOR is `x` != 0.
std::size_t equal_low_bytes(std::uint64_t x) {
  return static_cast<std::size_t>(kLittleEndian ? std::countr_zero(x)
                                                : std::countl_zero(x)) /
         8;
}

/// Equal bytes at the high-address end of two words whose XOR is `x` != 0.
std::size_t equal_high_bytes(std::uint64_t x) {
  return static_cast<std::size_t>(kLittleEndian ? std::countl_zero(x)
                                                : std::countr_zero(x)) /
         8;
}

/// Length of the common prefix of a[0, limit) and b[0, limit).
std::size_t common_forward(const std::uint8_t* a, const std::uint8_t* b,
                           std::size_t limit) {
  std::size_t k = 0;
  for (; k + kWord <= limit; k += kWord) {
    const std::uint64_t x = load_word(a + k) ^ load_word(b + k);
    if (x != 0) return k + equal_low_bytes(x);
  }
  while (k < limit && a[k] == b[k]) ++k;
  return k;
}

/// Length of the common suffix of a[-limit, 0) and b[-limit, 0).
std::size_t common_backward(const std::uint8_t* a, const std::uint8_t* b,
                            std::size_t limit) {
  std::size_t k = 0;
  for (; k + kWord <= limit; k += kWord) {
    const std::uint64_t x =
        load_word(a - k - kWord) ^ load_word(b - k - kWord);
    if (x != 0) return k + equal_high_bytes(x);
  }
  while (k < limit && a[-1 - static_cast<std::ptrdiff_t>(k)] ==
                          b[-1 - static_cast<std::ptrdiff_t>(k)]) {
    ++k;
  }
  return k;
}

}  // namespace

std::optional<Match> expand_match(util::BytesView pnew, std::size_t new_off,
                                  util::BytesView stored,
                                  std::size_t stored_off, std::size_t window,
                                  std::size_t min_new_begin) {
  if (new_off + window > pnew.size() || stored_off + window > stored.size()) {
    return std::nullopt;
  }
  if (std::memcmp(pnew.data() + new_off, stored.data() + stored_off, window) !=
      0) {
    return std::nullopt;  // fingerprint collision
  }
  // Expand left, no further than min_new_begin or the stored start.
  const std::size_t left_room = std::min(
      new_off > min_new_begin ? new_off - min_new_begin : 0, stored_off);
  const std::size_t left = common_backward(
      pnew.data() + new_off, stored.data() + stored_off, left_room);
  // Expand right, no further than either payload's end.
  const std::size_t ne = new_off + window;
  const std::size_t se = stored_off + window;
  const std::size_t right =
      common_forward(pnew.data() + ne, stored.data() + se,
                     std::min(pnew.size() - ne, stored.size() - se));
  return Match{new_off - left, stored_off - left, window + left + right};
}

}  // namespace bytecache::core
