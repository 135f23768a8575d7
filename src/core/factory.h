// Construction of encoding policies and codecs by name, and the single
// configuration surface every gateway flavor is built from.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "cache/cache_config.h"
#include "core/decoder.h"
#include "core/encoder.h"
#include "core/params.h"
#include "core/policy.h"
#include "obs/metrics.h"

namespace bytecache::core {

enum class PolicyKind {
  kNone,        // DRE disabled (baseline runs)
  kNaive,       // Spring & Wetherall (paper Fig. 2)
  kCacheFlush,  // paper Section V-A
  kTcpSeq,      // paper Section V-B
  kKDistance,   // paper Section V-C
};

/// The one way to describe a gateway.  Plain EncoderGateway /
/// DecoderGateway, their sharded counterparts, and the codec factories
/// all take this struct, so an encoder-side and decoder-side pair built
/// from the same config is guaranteed consistent (same DreParams, and
/// the decoder is enabled exactly when the policy encodes).  Replaces
/// the former positional (kind, params) / (enabled, params, options)
/// constructor zoo.
struct GatewayConfig {
  DreParams params;
  PolicyKind policy = PolicyKind::kNaive;

  /// Cache geometry (cache/cache_config.h): the L1 byte budget, the
  /// optional shared L2 tier, and per-host-pair admission budgets.  The
  /// default — everything zero — is the paper's unbounded flat cache.
  /// Both gateway sides of a deployment must agree (the codecs run their
  /// caches in lockstep).
  cache::CacheConfig cache;

  /// Sharded gateways only: shared-nothing shard count (>= 1), SPSC ring
  /// capacity (rounded up to a power of two), and whether each shard
  /// gets its own worker thread (false = deterministic inline mode).
  /// Of these three the sharded decoder reads only `shards`: it has no
  /// rings or threads of its own and decodes on the thread that feeds
  /// each shard.
  std::size_t shards = 1;
  std::size_t ring_capacity = 1024;
  bool threaded = true;

  /// Telemetry (DESIGN.md §10).  `metrics` is an optional *parent*
  /// registry (not owned; must outlive the gateway): the gateway
  /// registers itself as a snapshot provider on it.  Each gateway always
  /// keeps its own registry regardless, so snapshot() works standalone.
  obs::MetricsRegistry* metrics = nullptr;
  /// Latency-span decimation: one in `span_sample_every` packets reads
  /// the clock (rounded up to a power of two); 0 disables spans — the
  /// telemetry-off configuration of the bench overhead gate.
  std::uint32_t span_sample_every = 64;

  /// The decoder side is transparent exactly when the encoder side is.
  [[nodiscard]] bool decoder_enabled() const {
    return policy != PolicyKind::kNone;
  }
};

/// Creates the policy; returns nullptr for kNone.
[[nodiscard]] std::unique_ptr<EncodingPolicy> make_policy(
    PolicyKind kind, const DreParams& params);

/// Creates an encoder running the configured policy; nullptr for kNone
/// (the gateways treat a null codec as transparent pass-through).  The
/// single construction point the sharded gateways use per shard, so
/// every shard of one gateway is configured identically.  `l2` is the
/// gateway's shared L2 store (cfg.cache.has_l2(); one unclaimed stripe
/// per codec), or nullptr for an L1-only codec.
[[nodiscard]] std::unique_ptr<Encoder> make_encoder(
    const GatewayConfig& cfg, cache::L2Store* l2 = nullptr);

/// Creates the matching decoder; nullptr when cfg.decoder_enabled() is
/// false.
[[nodiscard]] std::unique_ptr<Decoder> make_decoder(
    const GatewayConfig& cfg, cache::L2Store* l2 = nullptr);

[[nodiscard]] std::string_view to_string(PolicyKind kind);

[[nodiscard]] std::optional<PolicyKind> policy_from_string(
    std::string_view name);

}  // namespace bytecache::core
