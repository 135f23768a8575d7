#include "resilience/perceived_loss.h"

#include <limits>

#include "util/check.h"

namespace bytecache::resilience {

PerceivedLossEstimator::PerceivedLossEstimator(
    const LossEstimatorConfig& config, const DegradationConfig& ladder)
    : config_(config), ladder_(ladder) {
  BC_CHECK(config_.alpha > 0.0 && config_.alpha <= 1.0)
      << "loss-estimator alpha " << config_.alpha << " outside (0, 1]";
}

HostPairState& PerceivedLossEstimator::pair_for(std::uint64_t host_key) {
  bool inserted = false;
  HostPairState& p = pairs_.upsert(host_key, inserted);
  if (inserted) p.ladder = DegradationController(ladder_);
  return p;
}

void PerceivedLossEstimator::sample(FlowLossState& s, double outcome) const {
  s.ewma = (1.0 - config_.alpha) * s.ewma + config_.alpha * outcome;
}

void PerceivedLossEstimator::stamp(FlowLossState& s,
                                   std::uint64_t failures) const {
  s.window_failures += failures;
  s.last_loss_clock = clock_;
  s.lossy = true;
}

HostPairState& PerceivedLossEstimator::on_offered(std::uint64_t host_key) {
  ++total_offered_;
  HostPairState& p = pair_for(host_key);
  ++p.loss.offered;
  p.loss.ewma = (1.0 - config_.alpha) * p.loss.ewma;
  if (++p.loss.window_offered == kLossWindowPackets) {
    p.loss.window_offered /= 2;
    p.loss.window_failures /= 2;
  }
  return p;
}

void PerceivedLossEstimator::on_channel_drop(std::uint64_t host_key) {
  ++total_channel_drops_;
  FlowLossState& s = pair_for(host_key).loss;
  ++s.channel_drops;
  sample(s, 1.0);
  stamp(s, 1);
}

void PerceivedLossEstimator::on_undecodable(std::uint64_t host_key,
                                            std::uint32_t count) {
  total_undecodable_ += count;
  FlowLossState& s = pair_for(host_key).loss;
  s.undecodable += count;
  for (std::uint32_t i = 0; i < count; ++i) sample(s, 1.0);
  stamp(s, count);
}

void PerceivedLossEstimator::on_retransmission(HostPairState& pair) {
  ++total_retransmissions_;
  ++pair.loss.retransmissions;
  stamp(pair.loss, 0);
}

std::uint64_t PerceivedLossEstimator::since_loss(
    const FlowLossState& s) const {
  return s.lossy ? clock_ - s.last_loss_clock
                 : std::numeric_limits<std::uint64_t>::max();
}

double PerceivedLossEstimator::loss(std::uint64_t host_key) const {
  const HostPairState* p = pairs_.find(host_key);
  return p == nullptr ? 0.0 : p->loss.ewma;
}

double PerceivedLossEstimator::max_loss() const {
  double worst = 0.0;
  pairs_.for_each([&](std::uint64_t, const HostPairState& p) {
    if (p.loss.ewma > worst) worst = p.loss.ewma;
  });
  return worst;
}

DegradationLevel PerceivedLossEstimator::level_of(
    std::uint64_t host_key) const {
  const HostPairState* p = pairs_.find(host_key);
  return p == nullptr ? DegradationLevel::kKDistance : p->ladder.level();
}

DegradationLevel PerceivedLossEstimator::worst_level() const {
  auto worst = DegradationLevel::kKDistance;
  pairs_.for_each([&](std::uint64_t, const HostPairState& p) {
    if (p.ladder.level() > worst) worst = p.ladder.level();
  });
  return worst;
}

std::uint64_t PerceivedLossEstimator::transitions() const {
  std::uint64_t total = 0;
  pairs_.for_each([&](std::uint64_t, const HostPairState& p) {
    total += p.ladder.transitions();
  });
  return total;
}

const FlowLossState* PerceivedLossEstimator::flow(
    std::uint64_t host_key) const {
  const HostPairState* p = pairs_.find(host_key);
  return p == nullptr ? nullptr : &p->loss;
}

void PerceivedLossEstimator::audit() const {
  if (!util::kAuditEnabled) return;
  std::uint64_t offered = 0;
  std::uint64_t channel = 0;
  std::uint64_t undecodable = 0;
  std::uint64_t retransmissions = 0;
  pairs_.for_each([&](std::uint64_t key, const HostPairState& p) {
    BC_AUDIT(p.loss.ewma >= 0.0 && p.loss.ewma <= 1.0)
        << "EWMA " << p.loss.ewma << " of host key " << key
        << " is not a probability";
    p.ladder.audit();
    offered += p.loss.offered;
    channel += p.loss.channel_drops;
    undecodable += p.loss.undecodable;
    retransmissions += p.loss.retransmissions;
    BC_AUDIT(p.loss.window_offered < kLossWindowPackets &&
             p.loss.window_offered <= p.loss.offered &&
             p.loss.window_failures <=
                 p.loss.channel_drops + p.loss.undecodable)
        << "host key " << key << " loss window " << p.loss.window_failures
        << "/" << p.loss.window_offered << " outside its bounds";
    BC_AUDIT(!p.loss.lossy || p.loss.last_loss_clock <= clock_)
        << "host key " << key << " stamped loss at clock "
        << p.loss.last_loss_clock << ", ahead of " << clock_;
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
