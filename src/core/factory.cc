#include "core/factory.h"

#include "core/policies.h"

namespace bytecache::core {

std::unique_ptr<EncodingPolicy> make_policy(PolicyKind kind,
                                            const DreParams& params) {
  switch (kind) {
    case PolicyKind::kNone:
      return nullptr;
    case PolicyKind::kNaive:
      return std::make_unique<NaivePolicy>();
    case PolicyKind::kCacheFlush:
      return std::make_unique<CacheFlushPolicy>();
    case PolicyKind::kTcpSeq:
      return std::make_unique<TcpSeqPolicy>();
    case PolicyKind::kKDistance:
      return std::make_unique<KDistancePolicy>(params.k_distance);
  }
  return nullptr;
}

std::unique_ptr<Encoder> make_encoder(const GatewayConfig& cfg,
                                      cache::L2Store* l2) {
  auto policy = make_policy(cfg.policy, cfg.params);
  if (policy == nullptr) return nullptr;
  return std::make_unique<Encoder>(cfg.params, std::move(policy), cfg.cache,
                                   l2);
}

std::unique_ptr<Decoder> make_decoder(const GatewayConfig& cfg,
                                      cache::L2Store* l2) {
  if (!cfg.decoder_enabled()) return nullptr;
  return std::make_unique<Decoder>(cfg.params, cfg.cache, l2);
}

std::string_view to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kNone: return "none";
    case PolicyKind::kNaive: return "naive";
    case PolicyKind::kCacheFlush: return "cache_flush";
    case PolicyKind::kTcpSeq: return "tcp_seq";
    case PolicyKind::kKDistance: return "k_distance";
  }
  return "?";
}

std::optional<PolicyKind> policy_from_string(std::string_view name) {
  if (name == "none") return PolicyKind::kNone;
  if (name == "naive") return PolicyKind::kNaive;
  if (name == "cache_flush") return PolicyKind::kCacheFlush;
  if (name == "tcp_seq") return PolicyKind::kTcpSeq;
  if (name == "k_distance") return PolicyKind::kKDistance;
  return std::nullopt;
}

}  // namespace bytecache::core
