#include "harness/experiment.h"

#include <cstdio>

#include "obs/export.h"
#include "sim/simulator.h"

namespace bytecache::harness {

TrialResult run_trial(const ExperimentConfig& config, util::BytesView file,
                      std::uint64_t seed) {
  sim::Simulator sim;

  app::PipelineConfig pc;
  pc.policy = config.policy;
  pc.dre = config.dre;
  pc.cache = config.cache;
  pc.tcp = config.tcp;
  pc.forward_link = config.forward_link;
  pc.reverse_link = config.reverse_link;
  pc.loss_rate = config.loss_rate;
  pc.bursty_loss = config.bursty_loss;
  pc.reverse_loss_rate = config.reverse_loss_rate;
  pc.seed = seed;
  app::Pipeline pipeline(sim, pc);

  app::FileTransfer transfer(sim, pipeline,
                             util::Bytes(file.begin(), file.end()),
                             config.give_up);
  transfer.run_to_completion();

  TrialResult r;
  const app::TransferResult& t = transfer.result();
  r.completed = t.completed;
  r.stalled = t.stalled;
  r.verified = t.verified;
  r.duration_s = t.duration_s;
  r.percent_retrieved = t.percent_retrieved();

  // Every number below comes from the pipeline's registry snapshot: the
  // single stats surface (DESIGN.md §10).  Absent names read as zero, so
  // disabled layers (no encoder, no resilience) need no special-casing
  // beyond a presence check where the *source* of a value changes.
  const obs::Snapshot snap = pipeline.snapshot();
  r.wire_bytes_forward = snap.counter("link.forward.bytes_sent");
  r.packets_forward = snap.counter("link.forward.packets_offered");
  r.link_drops = snap.counter("link.forward.drops_loss") +
                 snap.counter("link.forward.drops_queue");
  r.corrupted = snap.counter("link.forward.corrupted");
  r.decoder_drops = snap.counter("gateway.decoder.dropped");
  r.receiver_checksum_drops = snap.counter("tcp.receiver.checksum_drops");
  if (r.packets_forward > 0) {
    r.actual_loss =
        static_cast<double>(r.link_drops) / r.packets_forward;
    r.perceived_loss = static_cast<double>(r.link_drops + r.decoder_drops +
                                           r.receiver_checksum_drops) /
                       r.packets_forward;
    r.avg_packet_size =
        static_cast<double>(r.wire_bytes_forward) / r.packets_forward;
  }

  if (snap.find("encoder.packets") != nullptr) {
    r.payload_bytes_in = snap.counter("encoder.bytes_in");
    r.payload_bytes_out = snap.counter("encoder.bytes_out");
    r.encoded_packets = snap.counter("encoder.encoded_packets");
    r.references = snap.counter("encoder.references");
    r.flushes = snap.counter("encoder.flushes");
    r.resync_requests = snap.counter("encoder.resync_requests");
    r.resyncs_honored = snap.counter("encoder.resyncs_honored");
    if (r.encoded_packets > 0) {
      r.avg_deps =
          static_cast<double>(snap.counter("encoder.dependency_links")) /
          r.encoded_packets;
    }
  } else {  // DRE off: the TCP payload goes out as-is
    r.payload_bytes_in = snap.counter("tcp.sender.bytes_sent");
    r.payload_bytes_out = r.payload_bytes_in;
  }

  r.epoch_adoptions = snap.counter("decoder.epoch_adoptions");
  r.stale_drops = snap.counter("decoder.drops_stale_epoch") +
                  snap.counter("decoder.drops_stale_ref");
  r.estimated_loss = snap.gauge("resilience.loss.perceived_max");

  r.repair_packets_sent = snap.counter("gateway.encoder.repair_packets_out");
  if (const obs::HistogramValue* h =
          snap.histogram("fec.encoder.repairs_per_generation");
      h != nullptr && h->count > 0) {
    r.repairs_per_generation =
        static_cast<double>(h->sum) / static_cast<double>(h->count);
  }
  r.packets_reconstructed = snap.counter("decoder.fec.reconstructed");
  r.packets_resequenced = snap.counter("decoder.fec.resequenced");
  r.fec_forced_releases = snap.counter("decoder.fec.forced_releases");

  r.tcp_retransmissions = snap.counter("tcp.sender.retransmissions");
  r.tcp_timeouts = snap.counter("tcp.sender.timeouts");
  r.tcp_fast_retransmits = snap.counter("tcp.sender.fast_retransmits");
  r.metrics_json = obs::to_json_object(snap);
  return r;
}

std::string to_json(const TrialResult& r) {
  char buf[1536];
  std::snprintf(
      buf, sizeof buf,
      "{\"completed\":%s,\"stalled\":%s,\"verified\":%s,"
      "\"duration_s\":%.6f,\"percent_retrieved\":%.2f,"
      "\"wire_bytes_forward\":%llu,\"packets_forward\":%llu,"
      "\"link_drops\":%llu,\"decoder_drops\":%llu,"
      "\"actual_loss\":%.6f,\"perceived_loss\":%.6f,"
      "\"payload_bytes_in\":%llu,\"payload_bytes_out\":%llu,"
      "\"encoded_packets\":%llu,\"avg_packet_size\":%.1f,"
      "\"tcp_retransmissions\":%llu,\"tcp_timeouts\":%llu,"
      "\"resync_requests\":%llu,\"resyncs_honored\":%llu,"
      "\"epoch_adoptions\":%llu,\"stale_drops\":%llu,"
      "\"estimated_loss\":%.6f,"
      "\"repair_packets_sent\":%llu,\"packets_reconstructed\":%llu,"
      "\"packets_resequenced\":%llu,\"fec_forced_releases\":%llu,"
      "\"metrics\":",
      r.completed ? "true" : "false", r.stalled ? "true" : "false",
      r.verified ? "true" : "false", r.duration_s, r.percent_retrieved,
      static_cast<unsigned long long>(r.wire_bytes_forward),
      static_cast<unsigned long long>(r.packets_forward),
      static_cast<unsigned long long>(r.link_drops),
      static_cast<unsigned long long>(r.decoder_drops), r.actual_loss,
      r.perceived_loss, static_cast<unsigned long long>(r.payload_bytes_in),
      static_cast<unsigned long long>(r.payload_bytes_out),
      static_cast<unsigned long long>(r.encoded_packets), r.avg_packet_size,
      static_cast<unsigned long long>(r.tcp_retransmissions),
      static_cast<unsigned long long>(r.tcp_timeouts),
      static_cast<unsigned long long>(r.resync_requests),
      static_cast<unsigned long long>(r.resyncs_honored),
      static_cast<unsigned long long>(r.epoch_adoptions),
      static_cast<unsigned long long>(r.stale_drops), r.estimated_loss,
      static_cast<unsigned long long>(r.repair_packets_sent),
      static_cast<unsigned long long>(r.packets_reconstructed),
      static_cast<unsigned long long>(r.packets_resequenced),
      static_cast<unsigned long long>(r.fec_forced_releases));
  return std::string(buf) + r.metrics_json + "}";
}

Aggregate run_experiment(const ExperimentConfig& config,
                         util::BytesView file) {
  Aggregate agg;
  std::uint64_t completed = 0;
  for (std::size_t i = 0; i < config.trials; ++i) {
    TrialResult r = run_trial(config, file, config.seed + 1 + i);
    if (r.completed) ++completed;
    agg.duration_s.add(r.duration_s);
    agg.wire_bytes.add(static_cast<double>(r.wire_bytes_forward));
    agg.perceived_loss.add(r.perceived_loss);
    agg.actual_loss.add(r.actual_loss);
    agg.percent_retrieved.add(r.percent_retrieved);
    agg.avg_packet_size.add(r.avg_packet_size);
    agg.packets_forward.add(static_cast<double>(r.packets_forward));
    agg.trials.push_back(std::move(r));
  }
  agg.completion_rate = config.trials == 0
                            ? 0.0
                            : static_cast<double>(completed) / config.trials;
  return agg;
}

RatioPoint run_ratio_point(ExperimentConfig config, util::BytesView file) {
  RatioPoint point;
  point.loss_rate = config.loss_rate;
  point.with_dre = run_experiment(config, file);

  ExperimentConfig baseline = config;
  baseline.policy = core::PolicyKind::kNone;
  point.without_dre = run_experiment(baseline, file);

  const double base_bytes = point.without_dre.wire_bytes.mean();
  const double base_delay = point.without_dre.duration_s.mean();
  if (base_bytes > 0) {
    point.bytes_ratio = point.with_dre.wire_bytes.mean() / base_bytes;
  }
  if (base_delay > 0) {
    point.delay_ratio = point.with_dre.duration_s.mean() / base_delay;
  }
  return point;
}

}  // namespace bytecache::harness
