#include "resilience/perceived_loss.h"

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

HostPairState& PerceivedLossEstimator::on_offered(std::uint64_t host_key) {
  ++total_offered_;
  HostPairState& p = pair_for(host_key);
  ++p.loss.offered;
  p.loss.ewma = (1.0 - config_.alpha) * p.loss.ewma;
  return p;
}

void PerceivedLossEstimator::on_channel_drop(std::uint64_t host_key) {
  ++total_channel_drops_;
  FlowLossState& s = pair_for(host_key).loss;
  ++s.channel_drops;
  sample(s, 1.0);
}

void PerceivedLossEstimator::on_undecodable(std::uint64_t host_key,
                                            std::uint32_t count) {
  total_undecodable_ += count;
  FlowLossState& s = pair_for(host_key).loss;
  s.undecodable += count;
  for (std::uint32_t i = 0; i < count; ++i) sample(s, 1.0);
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
  pairs_.for_each([&](std::uint64_t key, const HostPairState& p) {
    BC_AUDIT(p.loss.ewma >= 0.0 && p.loss.ewma <= 1.0)
        << "EWMA " << p.loss.ewma << " of host key " << key
        << " is not a probability";
    p.ladder.audit();
    offered += p.loss.offered;
    channel += p.loss.channel_drops;
    undecodable += p.loss.undecodable;
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
}

}  // namespace bytecache::resilience
