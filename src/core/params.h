// Tunable parameters of the DRE codec.
#pragma once

#include <cstddef>
#include <cstdint>

#include "fec/params.h"
#include "rabin/polynomial.h"
#include "resilience/epoch_sync.h"

namespace bytecache::core {

/// How anchor positions are chosen from the fingerprint stream.
enum class SelectMode {
  kValueSampling,  // last select_bits bits zero (paper / Spring-Wetherall)
  kMaxp,           // per-window fingerprint maximum (Anand et al.;
                   // gap-free coverage)
  kSampleByte,     // EndRE SAMPLEBYTE: first-byte lookup + skip;
                   // fingerprints computed only at anchors (fastest)
};

struct DreParams {
  /// Rabin window width w (paper Section III-B: w = 16).
  std::size_t window = 16;

  /// Anchor selection scheme (both gateways must agree).
  SelectMode select_mode = SelectMode::kValueSampling;

  /// Fingerprint selection: keep fingerprints whose last `select_bits`
  /// bits are zero (paper: k = 4, i.e. 1/16 of positions).
  unsigned select_bits = 4;

  /// MAXP window: an anchor is guaranteed in every run of maxp_p window
  /// positions; expected density 2/(maxp_p+1).  31 approximates the 1/16
  /// of the default value sampling.
  std::size_t maxp_p = 31;

  /// SAMPLEBYTE: 256/period byte values are anchors; `skip` bytes are
  /// skipped after each anchor (EndRE uses p/2).
  unsigned samplebyte_period = 16;
  std::size_t samplebyte_skip = 8;

  /// A repeated region is substituted only if its length exceeds this
  /// (paper Fig. 2 line B.8: len > 14, the size of one encoding field).
  std::size_t min_region = 14;

  /// Modulus for Rabin fingerprints (verified irreducible).
  std::uint64_t poly = rabin::kDefaultPoly;

  /// k-distance policy: a reference (unencoded) packet every k packets
  /// (paper Section V-C; Table II uses k = 8).
  std::size_t k_distance = 8;

  /// Decoder->encoder NACK feedback (paper Section VIII, first potential
  /// approach / informed marking): on an undecodable packet the decoder
  /// names the missing fingerprint and the encoder stops referencing the
  /// packet that owns it.  Composes with any policy.
  bool nack_feedback = false;

  /// Epoch-stamped cache resynchronization (DESIGN.md §9): encoded
  /// packets use the v2 shim carrying the encoder's flush epoch; the
  /// decoder enforces epochs (adopts the newest, drops stale packets and
  /// stale references) and requests a resync — an encoder flush, i.e. an
  /// epoch bump — over the control channel with bounded retry/backoff
  /// instead of stalling on an undecodable retransmission.  Off by
  /// default: the v1 wire format stays bit-identical.  Composes with any
  /// policy.  Both gateways must agree.
  bool epoch_resync = false;
  resilience::EpochSyncConfig epoch_sync;

  /// Coded repair (DESIGN.md §13): encoded packets use the v3 shim
  /// carrying a generation tag, the encoder emits GF(256) repair
  /// payloads per generation of wire packets, and the decoder gateway
  /// re-sequences reordered arrivals and reconstructs up to R lost
  /// packets per generation without a resync round-trip.  R follows the
  /// loss the members' host pairs show (§13.3), read from the encoder's
  /// per-host-pair loss table, which exists exactly when this is on:
  /// repair.repair_packets or more while loss is seen and at start-up,
  /// none on a path clean for fec::kLossMemoryGenerations generations.
  /// Off by default: v1/v2
  /// wire bytes stay bit-identical.  Both gateways must agree.
  bool coded_repair = false;
  fec::RepairConfig repair;

  /// ACK-gated references (paper Section VIII, second potential
  /// approach): the encoder may only reference TCP segments already
  /// covered by the peer's cumulative ACK.  Such references are always
  /// resolvable (an ACKed segment passed the decoder, which cached it),
  /// at the cost of one RTT of reference lag.  Composes with any policy.
  bool ack_gated = false;
};

}  // namespace bytecache::core
