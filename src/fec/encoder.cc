#include "fec/encoder.h"

#include <algorithm>
#include <cmath>

#include "fec/gf256.h"
#include "util/check.h"
#include "util/crc32.h"

namespace bytecache::fec {

std::uint8_t loss_sized_repairs(std::size_t members, double mean_loss) {
  // Kim, Médard and Barros size network-coded TCP's redundancy at
  // 1/(1-p): n/(1-p) coded packets deliver n on average.  A generation
  // gets no second chance at its mean, so R is sized for the tail: the
  // smallest R with P[Binomial(members + R, p) > R] <= kRepairTailTarget.
  if (mean_loss <= 0.0) return 0;
  if (mean_loss >= 1.0) return kMaxRepairPackets;
  const double odds = mean_loss / (1.0 - mean_loss);
  for (std::size_t r = 0; r < kMaxRepairPackets; ++r) {
    const std::size_t n = members + r;
    double term = std::pow(1.0 - mean_loss, static_cast<double>(n));
    double at_most_r = term;
    for (std::size_t k = 1; k <= r; ++k) {
      term *= static_cast<double>(n - k + 1) / static_cast<double>(k) * odds;
      at_most_r += term;
    }
    if (1.0 - at_most_r <= kRepairTailTarget) {
      return static_cast<std::uint8_t>(r);
    }
  }
  return kMaxRepairPackets;
}

RepairEncoder::RepairEncoder(const RepairConfig& cfg) : cfg_(cfg) {
  BC_CHECK(cfg_.generation_packets >= 1 &&
           cfg_.generation_packets <= kMaxGenerationPackets)
      << "generation_packets " << int{cfg_.generation_packets}
      << " outside [1, " << kMaxGenerationPackets << "]";
  BC_CHECK(cfg_.repair_packets >= 1 &&
           cfg_.repair_packets <= kMaxRepairPackets)
      << "repair_packets " << int{cfg_.repair_packets} << " outside [1, "
      << kMaxRepairPackets << "]";
  emitted_.resize(2u * kMaxRepairPackets);
}

void RepairEncoder::begin_packet() { emitted_count_ = 0; }

RepairEncoder::Tag RepairEncoder::next_tag() {
  BC_CHECK(!tag_pending_) << "next_tag() called twice without add_member()";
  tag_pending_ = true;
  return Tag{gen_id_, member_count_};
}

void RepairEncoder::add_member(util::BytesView wire_image,
                               const MemberLoss& loss) {
  BC_CHECK(tag_pending_) << "add_member() without a preceding next_tag()";
  tag_pending_ = false;
  offsets_[member_count_] = static_cast<std::uint32_t>(arena_.size());
  util::append(arena_, wire_image);
  offsets_[member_count_ + 1] = static_cast<std::uint32_t>(arena_.size());
  if (wire_image.size() > max_len_) {
    max_len_ = static_cast<std::uint16_t>(wire_image.size());
  }
  loss_sum_ += loss.estimate;
  lossy_ |= loss.clean_generations < kLossMemoryGenerations;
  ++member_count_;
  ++stats_.members;
  if (member_count_ >= cfg_.generation_packets) close_generation();
}

void RepairEncoder::close_generation() {
  if (member_count_ == 0) return;
  const std::uint8_t count = repair_count();
  emit_repairs(count);
  repairs_hist_.record(count);
  ++stats_.generations;
  if (member_count_ < cfg_.generation_packets) ++stats_.early_closes;
  ++gen_id_;
  member_count_ = 0;
  max_len_ = 0;
  loss_sum_ = 0.0;
  lossy_ = false;
  arena_.clear();
}

std::uint8_t RepairEncoder::repair_count() const {
  std::uint8_t count = 0;
  if (lossy_ || stats_.generations < kLossMemoryGenerations) {
    count = std::max(cfg_.repair_packets,
                     loss_sized_repairs(member_count_,
                                        loss_sum_ / member_count_));
  }
  // The decoder takes a generation no repair describes to be G members
  // long; a short one must announce its size.
  if (count == 0 && member_count_ < cfg_.generation_packets) count = 1;
  return count;
}

void RepairEncoder::emit_repairs(std::uint8_t count) {
  if (count == 0) return;
  const std::uint16_t symbol_len = static_cast<std::uint16_t>(max_len_ + 2);
  scratch_.gen_id = gen_id_;
  scratch_.gen_size = member_count_;
  scratch_.repair_total = count;
  scratch_.symbol_len = symbol_len;
  scratch_.coeffs.resize(member_count_);
  for (std::uint8_t r = 0; r < count; ++r) {
    BC_CHECK(emitted_count_ < emitted_.size())
        << "more than two generation closes within one packet";
    scratch_.repair_index = r;
    scratch_.symbol.assign(symbol_len, 0);
    for (std::uint8_t j = 0; j < member_count_; ++j) {
      const std::uint8_t c = repair_coeff(r, j);
      scratch_.coeffs[j] = c;
      const std::uint32_t off = offsets_[j];
      const std::uint16_t len =
          static_cast<std::uint16_t>(offsets_[j + 1] - off);
      scratch_.symbol[0] ^= gf_mul(c, static_cast<std::uint8_t>(len >> 8));
      scratch_.symbol[1] ^= gf_mul(c, static_cast<std::uint8_t>(len));
      gf_axpy(scratch_.symbol.data() + 2, arena_.data() + off, len, c);
    }
    // Serialize with a zero CRC, then patch the real one in (the CRC
    // covers exactly the bytes after the header).
    scratch_.crc = 0;
    util::Bytes& out = emitted_[emitted_count_];
    scratch_.serialize_into(out);
    const std::uint32_t crc =
        util::crc32(util::BytesView(out).subspan(kRepairHeaderBytes));
    out[9] = static_cast<std::uint8_t>(crc >> 24);
    out[10] = static_cast<std::uint8_t>(crc >> 16);
    out[11] = static_cast<std::uint8_t>(crc >> 8);
    out[12] = static_cast<std::uint8_t>(crc);
    ++emitted_count_;
    ++stats_.repair_payloads;
    stats_.repair_bytes += out.size();
  }
}

void RepairEncoder::audit() const {
  if (!util::kAuditEnabled) return;
  BC_AUDIT(member_count_ < cfg_.generation_packets)
      << "open generation holds " << int{member_count_}
      << " members, at or past the close point "
      << int{cfg_.generation_packets};
  BC_AUDIT(repairs_hist_.sum() == stats_.repair_payloads &&
           repairs_hist_.count() == stats_.generations)
      << stats_.repair_payloads << " repair payloads from "
      << stats_.generations << " generations, but their R values sum to "
      << repairs_hist_.sum() << " over " << repairs_hist_.count();
  BC_AUDIT(stats_.repair_payloads >=
           std::min(stats_.generations, kLossMemoryGenerations) *
               cfg_.repair_packets)
      << stats_.repair_payloads << " repair payloads do not cover the "
      << "start-up generations at " << int{cfg_.repair_packets} << " each";
  BC_AUDIT(stats_.repair_payloads >= stats_.early_closes)
      << stats_.early_closes << " short generations but only "
      << stats_.repair_payloads << " repairs to announce their sizes";
  BC_AUDIT(stats_.early_closes <= stats_.generations)
      << stats_.early_closes << " early closes of " << stats_.generations
      << " generations";
  BC_AUDIT(stats_.members >= stats_.generations)
      << stats_.members << " members across " << stats_.generations
      << " generations";
}

}  // namespace bytecache::fec
