#include "resilience/perceived_loss.h"

#include <limits>

#include "util/check.h"

namespace bytecache::resilience {

void PerceivedLossEstimator::stamp(FlowLossState& s,
                                   std::uint64_t failures) const {
  s.window_failures += failures;
  s.last_loss_clock = clock_;
  s.lossy = true;
}

FlowLossState& PerceivedLossEstimator::on_offered(std::uint64_t host_key) {
  ++total_offered_;
  FlowLossState& s = pairs_.upsert(host_key);
  ++s.offered;
  if (++s.window_offered == kLossWindowPackets) {
    s.window_offered /= 2;
    s.window_failures /= 2;
  }
  return s;
}

void PerceivedLossEstimator::on_channel_drop(std::uint64_t host_key) {
  ++total_channel_drops_;
  FlowLossState& s = pairs_.upsert(host_key);
  ++s.channel_drops;
  stamp(s, 1);
}

void PerceivedLossEstimator::on_undecodable(std::uint64_t host_key,
                                            std::uint32_t count) {
  total_undecodable_ += count;
  FlowLossState& s = pairs_.upsert(host_key);
  s.undecodable += count;
  stamp(s, count);
}

void PerceivedLossEstimator::on_retransmission(FlowLossState& pair) {
  ++total_retransmissions_;
  ++pair.retransmissions;
  stamp(pair, 0);
}

std::uint64_t PerceivedLossEstimator::since_loss(
    const FlowLossState& s) const {
  return s.lossy ? clock_ - s.last_loss_clock
                 : std::numeric_limits<std::uint64_t>::max();
}

void PerceivedLossEstimator::audit() const {
  if (!util::kAuditEnabled) return;
  std::uint64_t offered = 0;
  std::uint64_t channel = 0;
  std::uint64_t undecodable = 0;
  std::uint64_t retransmissions = 0;
  pairs_.for_each([&](std::uint64_t key, const FlowLossState& p) {
    offered += p.offered;
    channel += p.channel_drops;
    undecodable += p.undecodable;
    retransmissions += p.retransmissions;
    BC_AUDIT(p.window_offered < kLossWindowPackets &&
             p.window_offered <= p.offered &&
             p.window_failures <= p.channel_drops + p.undecodable)
        << "host key " << key << " loss window " << p.window_failures
        << "/" << p.window_offered << " outside its bounds";
    BC_AUDIT(!p.lossy || p.last_loss_clock <= clock_)
        << "host key " << key << " stamped loss at clock "
        << p.last_loss_clock << ", ahead of " << clock_;
  });
  BC_AUDIT(offered == total_offered_)
      << "per-pair offered sum " << offered << " != total "
      << total_offered_;
  BC_AUDIT(channel == total_channel_drops_)
      << "per-pair channel-drop sum " << channel << " != total "
      << total_channel_drops_;
  BC_AUDIT(undecodable == total_undecodable_)
      << "per-pair undecodable sum " << undecodable << " != total "
      << total_undecodable_;
  BC_AUDIT(retransmissions == total_retransmissions_)
      << "per-pair retransmission sum " << retransmissions << " != total "
      << total_retransmissions_;
}

}  // namespace bytecache::resilience
