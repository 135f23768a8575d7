// Experiment harness: runs file transfers over the Fig. 3 topology and
// collects the metrics the paper reports.
//
// A *trial* is one file retrieval with one seed.  An *experiment* is a set
// of trials whose metrics are aggregated.  The ratio helpers implement the
// paper's normalizations:
//   - Figures 10/11: metric with DRE / metric without DRE, both at the
//     same actual loss rate;
//   - Figure 12: bytes normalized by file size, delay normalized by the
//     no-loss download time;
//   - Figure 13: perceived loss rate = (channel drops + undecodable drops
//     + corrupted-in-flight drops) / packets offered to the forward link.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "app/file_transfer.h"
#include "app/pipeline.h"
#include "core/factory.h"
#include "core/params.h"
#include "harness/metrics.h"
#include "sim/link.h"
#include "tcp/config.h"
#include "util/bytes.h"

namespace bytecache::harness {

struct ExperimentConfig {
  core::PolicyKind policy = core::PolicyKind::kNone;
  core::DreParams dre;
  cache::CacheConfig cache;
  tcp::TcpConfig tcp;
  sim::LinkConfig forward_link;
  sim::LinkConfig reverse_link{
      .rate_bytes_per_sec = 10'000'000.0,
      .propagation_delay = sim::us(500),
      .queue_packets = 1024,
  };
  double loss_rate = 0.0;
  bool bursty_loss = false;
  double reverse_loss_rate = 0.0;
  std::uint64_t seed = 1;
  std::size_t trials = 10;
  sim::SimTime give_up = sim::sec(600);
};

/// Everything measured in one trial.
struct TrialResult {
  bool completed = false;
  bool stalled = false;
  bool verified = false;
  double duration_s = 0.0;
  double percent_retrieved = 0.0;

  std::uint64_t wire_bytes_forward = 0;  // serialized on the lossy link
  std::uint64_t packets_forward = 0;     // offered to the lossy link
  std::uint64_t link_drops = 0;
  std::uint64_t decoder_drops = 0;       // undecodable packets
  std::uint64_t receiver_checksum_drops = 0;
  std::uint64_t corrupted = 0;

  double actual_loss = 0.0;     // channel only
  double perceived_loss = 0.0;  // channel + undecodable + corrupt-drop

  std::uint64_t payload_bytes_in = 0;   // offered to the encoder
  std::uint64_t payload_bytes_out = 0;  // after encoding
  std::uint64_t encoded_packets = 0;
  std::uint64_t references = 0;
  std::uint64_t flushes = 0;
  double avg_deps = 0.0;
  double avg_packet_size = 0.0;  // forward wire bytes / packets

  std::uint64_t tcp_retransmissions = 0;
  std::uint64_t tcp_timeouts = 0;
  std::uint64_t tcp_fast_retransmits = 0;

  // Resilience layer (zero unless dre.epoch_resync / dre.coded_repair
  // are enabled).
  std::uint64_t resync_requests = 0;   // received by the encoder
  std::uint64_t resyncs_honored = 0;   // ... that flushed the cache
  std::uint64_t epoch_adoptions = 0;   // decoder epoch changes
  std::uint64_t stale_drops = 0;       // stale-epoch + stale-reference
  double estimated_loss = 0.0;         // encoder-side recent loss (max
                                       // over pairs; coded codecs only)

  // Coded-repair layer (zero unless dre.coded_repair; DESIGN.md §13).
  std::uint64_t repair_packets_sent = 0;    // injected by the encoder gateway
  double repairs_per_generation = 0.0;      // mean R over closed generations
  std::uint64_t packets_reconstructed = 0;  // rebuilt from repair rows
  std::uint64_t packets_resequenced = 0;    // re-ordered via the buffer
  std::uint64_t fec_forced_releases = 0;    // reorder-cache gave up waiting

  /// The full registry snapshot rendered by obs::to_json_object — every
  /// metric the pipeline exposes, embedded verbatim into to_json().
  std::string metrics_json = "{}";
};

/// Runs one transfer of `file` and returns its metrics.
[[nodiscard]] TrialResult run_trial(const ExperimentConfig& config,
                                    util::BytesView file, std::uint64_t seed);

/// Aggregates over config.trials trials (seeds seed+1 .. seed+trials).
struct Aggregate {
  std::vector<TrialResult> trials;
  double completion_rate = 0.0;
  Summary duration_s;
  Summary wire_bytes;
  Summary perceived_loss;
  Summary actual_loss;
  Summary percent_retrieved;
  Summary avg_packet_size;
  Summary packets_forward;
};

[[nodiscard]] Aggregate run_experiment(const ExperimentConfig& config,
                                       util::BytesView file);

/// Machine-readable one-line JSON of a trial (for scripting pipelines).
[[nodiscard]] std::string to_json(const TrialResult& r);

/// The paper's Fig. 10/11 normalization: mean(metric | policy) divided by
/// mean(metric | no DRE) at the same loss rate.
struct RatioPoint {
  double loss_rate = 0.0;
  double bytes_ratio = 0.0;
  double delay_ratio = 0.0;
  Aggregate with_dre;
  Aggregate without_dre;
};

[[nodiscard]] RatioPoint run_ratio_point(ExperimentConfig config,
                                         util::BytesView file);

}  // namespace bytecache::harness
