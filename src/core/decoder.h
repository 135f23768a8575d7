// The DRE decoder.
//
// Performs the reciprocal of the encoder: reconstructs the original
// payload from literals plus cache lookups, verifies the CRC, restores the
// IP protocol field, and runs the identical cache-update procedure over
// the reconstructed payload so its cache tracks the encoder's.
//
// Any failure (missing fingerprint because the referenced packet was lost,
// region out of bounds, CRC mismatch after reorder/corruption) makes the
// packet *undecodable*: it is dropped, exactly as in the paper (Section IV
// t3: "the cache has no entry corresponding to r. As such, IPi cannot be
// decoded, and the packet is dropped").  These drops are what the paper
// calls the extra component of the *perceived* packet loss rate.
//
// With DreParams::epoch_resync (v2 wire format, DESIGN.md §9) the decoder
// additionally *enforces* the encoder's flush epoch: it adopts the newest
// epoch seen, drops packets from older epochs (kStaleEpoch) and packets
// whose references reach into entries cached two or more epochs ago
// (kStaleReference), and — via an embedded resilience::EpochSynchronizer —
// signals when a resync request should be sent back to the encoder
// (DecodeInfo::resync) instead of stalling on an undecodable
// retransmission loop.  Entries cached during the *previous* epoch stay
// referenceable (grace of one): packets the decoder caches between the
// encoder's flush and its own adoption of the new epoch carry the old
// stamp, yet the encoder re-cached the same payloads post-flush; the CRC
// remains the correctness backstop inside that window.
#pragma once

#include <cstdint>
#include <span>

#include "cache/cache_tier.h"
#include "core/anchors.h"
#include "core/params.h"
#include "core/wire.h"
#include "obs/fields.h"
#include "packet/packet.h"
#include "rabin/window.h"
#include "resilience/epoch_sync.h"

namespace bytecache::core {

enum class DecodeStatus {
  kPassthrough,         // not DRE-encoded; forwarded (and cached)
  kDecoded,             // reconstructed successfully
  kMalformedShim,       // shim/regions failed to parse
  kMissingFingerprint,  // referenced fingerprint absent (cache desync)
  kBadRegionBounds,     // region exceeds the stored payload
  kCrcMismatch,         // reconstruction does not match the original
  kStaleEpoch,          // v2: packet older than the adopted epoch
  kStaleReference,      // v2: reference into an entry >= 2 epochs old
};

/// True if the packet must be dropped.
[[nodiscard]] constexpr bool is_drop(DecodeStatus s) {
  return s != DecodeStatus::kPassthrough && s != DecodeStatus::kDecoded;
}

struct DecodeInfo {
  DecodeStatus status = DecodeStatus::kPassthrough;
  std::size_t regions = 0;
  std::size_t received_size = 0;  // payload bytes on the wire
  std::size_t restored_size = 0;  // payload bytes after reconstruction
  std::uint8_t version = 0;       // shim version, if encoded
  std::uint16_t epoch = 0;        // encoder epoch, if encoded

  /// On kMissingFingerprint / kStaleReference: the fingerprint that could
  /// not be resolved (what a NACK reports back to the encoder).
  rabin::Fingerprint missing_fp = 0;

  /// The synchronizer asks for a resync request carrying `resync_epoch`
  /// to be sent to the encoder (gateway/gateways.h does the sending).
  bool resync = false;
  std::uint16_t resync_epoch = 0;
};

struct DecoderStats {
  std::uint64_t packets = 0;
  std::uint64_t passthrough = 0;
  std::uint64_t decoded = 0;
  std::uint64_t drops_malformed = 0;
  std::uint64_t drops_missing_fp = 0;
  std::uint64_t drops_bad_bounds = 0;
  std::uint64_t drops_crc = 0;
  std::uint64_t drops_stale_epoch = 0;
  std::uint64_t drops_stale_ref = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t bytes_restored = 0;
  std::uint64_t epoch_adoptions = 0;  // v2 epoch changes after the first
  std::uint64_t epoch_rejections = 0; // implausible jumps not adopted
  std::uint64_t resync_signals = 0;   // resync requests asked for

  [[nodiscard]] std::uint64_t drops() const {
    return drops_malformed + drops_missing_fp + drops_bad_bounds +
           drops_crc + drops_stale_epoch + drops_stale_ref;
  }
};

/// Telemetry field table (obs/fields.h): drives the generic merge_into /
/// reset / snapshot operations and the registry metric names.
[[nodiscard]] constexpr auto stats_fields(const DecoderStats*) {
  using S = DecoderStats;
  return obs::field_table<S>(
      obs::Field<S>{"packets", &S::packets},
      obs::Field<S>{"passthrough", &S::passthrough},
      obs::Field<S>{"decoded", &S::decoded},
      obs::Field<S>{"drops_malformed", &S::drops_malformed},
      obs::Field<S>{"drops_missing_fp", &S::drops_missing_fp},
      obs::Field<S>{"drops_bad_bounds", &S::drops_bad_bounds},
      obs::Field<S>{"drops_crc", &S::drops_crc},
      obs::Field<S>{"drops_stale_epoch", &S::drops_stale_epoch},
      obs::Field<S>{"drops_stale_ref", &S::drops_stale_ref},
      obs::Field<S>{"bytes_received", &S::bytes_received},
      obs::Field<S>{"bytes_restored", &S::bytes_restored},
      obs::Field<S>{"epoch_adoptions", &S::epoch_adoptions},
      obs::Field<S>{"epoch_rejections", &S::epoch_rejections},
      obs::Field<S>{"resync_signals", &S::resync_signals});
}

/// Generic aggregation across the per-shard decoders of a sharded
/// gateway (gateway/sharded_gateways.h).
using obs::merge_into;
using obs::reset;

class Decoder {
 public:
  /// `cache` sizes the tier (cache/cache_config.h) and `l2` is the
  /// gateway's shared L2 store (nullptr = L1 only); both mirror the
  /// encoder's so the two caches evolve in lockstep.
  explicit Decoder(const DreParams& params,
                   const cache::CacheConfig& cache = {},
                   cache::L2Store* l2 = nullptr);

  /// Processes one incoming packet in place.  If is_drop(result.status),
  /// the caller must discard the packet.
  DecodeInfo process(packet::Packet& pkt);

  [[nodiscard]] const DecoderStats& stats() const { return stats_; }
  [[nodiscard]] const cache::CacheTier& cache() const { return cache_; }
  [[nodiscard]] const DreParams& params() const { return params_; }

  /// The adopted encoder epoch (0 until the first v2 packet).
  [[nodiscard]] std::uint16_t epoch() const { return epoch_; }

  /// Resync pacing state (params.epoch_resync).
  [[nodiscard]] const resilience::EpochSynchronizer& synchronizer() const {
    return sync_;
  }

  /// Deep invariant audit (BC_AUDIT; no-op unless the build enables
  /// audits): audits the cache, checks that no fingerprint references a
  /// packet id the decoder never stored, that every stored packet's
  /// stream position precedes the decoder's, and that the drop counters
  /// partition the packet count.
  void audit() const;

  /// Flushes the cache (mirrors Encoder::flush; used by tests/examples).
  void flush();

 private:
  DecodeInfo process_encoded(packet::Packet& pkt);
  /// The encoder restarted cold (epoch resync): drops the cache and the
  /// adopted epoch.
  void forget_peer();
  /// Fig. 2 procedure C over a passthrough or reconstructed packet;
  /// `regions` are the copies it was rebuilt from (empty for
  /// passthrough), their sources in sources_.
  void cache_update(const packet::Packet& pkt,
                    std::span<const EncodedRegion> regions);
  /// The payload's full anchor set, reusing each copied region's
  /// interior anchors from its source where possible (core/anchors.h).
  const std::vector<rabin::Anchor>& anchors_of(
      util::BytesView payload, std::span<const EncodedRegion> regions);

  DreParams params_;
  rabin::RabinTables tables_;
  cache::CacheTier cache_;
  DecoderStats stats_;
  std::uint64_t stream_index_ = 0;
  std::uint16_t epoch_ = 0;    // adopted encoder epoch (v2)
  bool epoch_locked_ = false;  // a v2 packet has been seen
  std::uint32_t stale_run_ = 0;  // stale-epoch drops since the last decode
  resilience::EpochSynchronizer sync_;

  // Per-packet scratch, reused across process() calls (mirrors the
  // encoder): anchor buffers, the parsed encoded form, and the
  // reconstruction buffer swapped into the packet.
  AnchorWorkspace anchor_ws_;
  AnchorWorkspace audit_ws_;  // full-scan oracle for reused anchor lists
  EncodedPayload enc_;
  util::Bytes reassembly_;
  /// Cached source of each region of the packet being decoded; valid
  /// until its cache update (which may promote or evict them).
  std::vector<const cache::CachedPacket*> sources_;
};

}  // namespace bytecache::core
