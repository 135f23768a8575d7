#include "gateway/gateways.h"

#include <algorithm>

#include "core/flow.h"
#include "core/wire.h"
#include "fec/wire.h"
#include "packet/tcp.h"

namespace bytecache::gateway {

namespace {

/// Registers the tier-movement counters and L2 occupancy gauges for one
/// codec's cache under `prefix` ("encoder.cache" / "decoder.cache").
/// `l2_fingerprints` counts the index entries owned by L2 residents; with
/// `fingerprints` (L1 residents') it sums to the codec's one index.
/// Only called when an L2 is attached, so L1-only snapshots carry
/// exactly the pre-tier value set.
void link_tier_metrics(obs::MetricsRegistry& metrics, std::string prefix,
                       const cache::CacheTier& cache) {
  obs::link_stats(metrics, prefix + ".tier", cache.tier_stats());
  const cache::L2Store::Stripe& stripe = *cache.stripe();
  metrics.probe_gauge(
      prefix + ".l2_bytes_stored",
      [&stripe] { return static_cast<double>(stripe.bytes_used()); },
      obs::MergeOp::kSum);
  metrics.probe_gauge(
      prefix + ".l2_packets_stored",
      [&stripe] { return static_cast<double>(stripe.size()); },
      obs::MergeOp::kSum);
  metrics.probe_gauge(
      prefix + ".l2_fingerprints",
      [&cache] { return static_cast<double>(cache.l2_fingerprint_count()); },
      obs::MergeOp::kSum);
  metrics.probe_gauge(
      prefix + ".l2_host_pairs",
      [&stripe] { return static_cast<double>(stripe.hosts().pairs()); },
      obs::MergeOp::kSum);
}

/// Composes observers: `first`, then `then` (either may be empty).
template <typename Fn>
Fn chain(Fn first, Fn then) {
  if (!first) return then;
  return [first = std::move(first), then = std::move(then)](
             const auto&... args) {
    first(args...);
    then(args...);
  };
}

}  // namespace

EncoderGateway::EncoderGateway(const core::GatewayConfig& cfg,
                               cache::L2Store* shared_l2)
    : own_l2_(cfg.policy != core::PolicyKind::kNone && cfg.cache.has_l2() &&
                      shared_l2 == nullptr
                  ? std::make_unique<cache::L2Store>(cfg.cache, 1)
                  : nullptr),
      encoder_(core::make_encoder(
          cfg, shared_l2 != nullptr ? shared_l2 : own_l2_.get())) {
  // Registry assembly is the cold path: linked counters read the stats
  // structs only at snapshot time, so the per-packet increments below
  // stay plain field adds.
  obs::link_stats(metrics_, "gateway.encoder", stats_);
  if (cfg.span_sample_every > 0) {
    encode_span_ = obs::SpanSampler(
        metrics_.histogram("gateway.encoder.encode_ns"),
        cfg.span_sample_every);
  }
  if (encoder_ != nullptr) {
    obs::link_stats(metrics_, "encoder", encoder_->stats());
    obs::link_stats(metrics_, "encoder.cache", encoder_->cache().stats());
    obs::link_stats(metrics_, "encoder.fec", encoder_->repair_stats());
    const cache::CacheTier& cache = encoder_->cache();
    if (cache.has_l2()) link_tier_metrics(metrics_, "encoder.cache", cache);
    metrics_.probe_gauge(
        "encoder.cache.bytes_stored",
        [&cache] { return static_cast<double>(cache.store().bytes_used()); },
        obs::MergeOp::kSum);
    metrics_.probe_gauge(
        "encoder.cache.packets_stored",
        [&cache] { return static_cast<double>(cache.store().size()); },
        obs::MergeOp::kSum);
    metrics_.probe_gauge(
        "encoder.cache.fingerprints",
        [&cache] { return static_cast<double>(cache.fingerprint_count()); },
        obs::MergeOp::kSum);
    metrics_.probe_counter("encoder.cache.evictions", [&cache] {
      return cache.store().evictions();
    });
    const core::Encoder& enc = *encoder_;
    metrics_.probe_gauge(
        "encoder.epoch", [&enc] { return static_cast<double>(enc.epoch()); },
        obs::MergeOp::kMax);
    if (cfg.params.coded_repair) {
      metrics_.link_histogram("fec.encoder.repairs_per_generation",
                              &enc.repairs_per_generation());
    }
  }
  // The loss table's probes bind to the table the encoder was built
  // with (registration is construction-only, like everything in the obs
  // layer).
  if (encoder_ != nullptr && encoder_->loss_table() != nullptr) {
    const resilience::PerceivedLossEstimator& est = *encoder_->loss_table();
    metrics_.probe_counter("resilience.loss.offered",
                           [&est] { return est.total_offered(); });
    metrics_.probe_counter("resilience.loss.channel_drops",
                           [&est] { return est.total_channel_drops(); });
    metrics_.probe_counter("resilience.loss.undecodable",
                           [&est] { return est.total_undecodable(); });
    metrics_.probe_gauge(
        "resilience.loss.flows",
        [&est] { return static_cast<double>(est.flows()); },
        obs::MergeOp::kSum);
    // Worst-case values merge with kMax: the pipeline-wide perceived
    // loss is the worst shard's, exactly as the paper's Fig. 13 metric.
    // It reads the recent-loss window that sizes R, clamped to 1 (repair
    // drops can outrun offered packets).
    metrics_.probe_gauge(
        "resilience.loss.perceived_max",
        [&est] {
          double worst = 0.0;
          est.pairs().for_each(
              [&](std::uint64_t, const resilience::FlowLossState& p) {
                worst = std::max(worst, std::min(p.recent_loss(), 1.0));
              });
          return worst;
        },
        obs::MergeOp::kMax);
  }
  if (cfg.metrics != nullptr) {
    cfg.metrics->add_provider([this] { return snapshot(); });
  }
}

void EncoderGateway::receive(packet::PacketPtr pkt) {
  ++stats_.packets;
  process_received(std::move(pkt));
}

void EncoderGateway::receive_burst(std::span<packet::PacketPtr> pkts) {
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    if (pkts[i] == nullptr) continue;
    // Pull the next packet's payload head while this one encodes; the
    // codec sequence and sink calls stay exactly receive()'s.
    if (i + 1 < pkts.size() && pkts[i + 1] != nullptr) {
      __builtin_prefetch(pkts[i + 1]->payload.data());
    }
    ++stats_.packets;
    process_received(std::move(pkts[i]));
  }
}

void EncoderGateway::process_received(packet::PacketPtr pkt) {
  std::span<const util::Bytes> repairs;
  if (encoder_ != nullptr) {
    const obs::SpanSampler::Token span = encode_span_.begin();
    core::EncodeInfo info = encoder_->process(*pkt);
    encode_span_.end(span);
    if (observer_) observer_(info);
    repairs = info.repairs;  // scratch stays valid until the next process()
  }
  stats_.wire_bytes_out += pkt->wire_size();
  repair_src_ = pkt->ip.src;
  repair_dst_ = pkt->ip.dst;
  repair_addr_known_ = true;
  if (sink_) sink_(std::move(pkt));
  // Repairs ride right behind the member that closed their generation;
  // injecting after the data packet keeps the data stream order intact.
  emit_repairs(repairs);
}

void EncoderGateway::add_observer(EncodeObserver fn) {
  observer_ = chain(std::move(observer_), std::move(fn));
}

void EncoderGateway::emit_repairs(std::span<const util::Bytes> repairs) {
  for (const util::Bytes& payload : repairs) {
    auto rp = packet::make_packet(repair_src_, repair_dst_,
                                  packet::IpProto::kDre, payload);
    ++stats_.repair_packets_out;
    stats_.wire_bytes_out += rp->wire_size();
    if (sink_) sink_(std::move(rp));
  }
}

void EncoderGateway::flush_repairs() {
  if (encoder_ == nullptr || !repair_addr_known_) return;
  emit_repairs(encoder_->close_repair_generation());
}

bool EncoderGateway::switch_policy(core::PolicyKind kind) {
  if (encoder_ == nullptr) return false;
  auto policy = core::make_policy(kind, encoder_->params());
  if (policy == nullptr) return false;  // kNone: cannot un-build a codec
  encoder_->set_policy(std::move(policy));
  return true;
}

void EncoderGateway::receive_control(const packet::Packet& pkt) {
  if (encoder_ == nullptr) return;
  auto msg = core::ControlMessage::parse(pkt.payload);
  if (!msg) return;
  switch (msg->type) {
    case core::ControlMessage::Type::kNack:
      for (rabin::Fingerprint fp : msg->fingerprints) {
        encoder_->on_nack(fp);
      }
      break;
    case core::ControlMessage::Type::kResyncRequest:
      encoder_->on_resync_request(msg->epoch);
      break;
    case core::ControlMessage::Type::kLossReport:
      ++stats_.loss_reports;
      encoder_->on_loss_report(msg->host_key, msg->count);
      break;
  }
}

void EncoderGateway::on_channel_drop(const packet::Packet& pkt) {
  ++stats_.channel_drops_seen;
  if (encoder_ != nullptr) {
    encoder_->on_channel_drop(core::host_key_of(pkt.ip.src, pkt.ip.dst));
  }
}

void EncoderGateway::observe_reverse(const packet::Packet& pkt) {
  if (encoder_ == nullptr || !encoder_->params().ack_gated) return;
  if (pkt.proto() != packet::IpProto::kTcp) return;
  auto h = packet::TcpHeader::parse_unchecked(pkt.payload);
  if (h && h->has_ack()) {
    // The reverse packet's endpoints are swapped relative to the data
    // direction whose segments the gate admits.
    const std::uint64_t key = core::flow_key_of(pkt.ip.dst, pkt.ip.src,
                                                h->dst_port, h->src_port);
    encoder_->on_reverse_ack(key, h->ack);
  }
}

DecoderGateway::DecoderGateway(const core::GatewayConfig& cfg,
                               cache::L2Store* shared_l2)
    : own_l2_(cfg.decoder_enabled() && cfg.cache.has_l2() &&
                      shared_l2 == nullptr
                  ? std::make_unique<cache::L2Store>(cfg.cache, 1)
                  : nullptr),
      decoder_(core::make_decoder(
          cfg, shared_l2 != nullptr ? shared_l2 : own_l2_.get())),
      nack_feedback_(cfg.params.nack_feedback),
      resilience_feedback_(cfg.params.epoch_resync) {
  obs::link_stats(metrics_, "gateway.decoder", stats_);
  if (cfg.span_sample_every > 0) {
    decode_span_ = obs::SpanSampler(
        metrics_.histogram("gateway.decoder.decode_ns"),
        cfg.span_sample_every);
  }
  // Undecodable-run-length episodes are recorded unconditionally: the
  // cost is one counter update per packet only while drops are already
  // happening, never on the fast path.
  run_hist_ = &metrics_.histogram("gateway.decoder.undecodable_run");
  if (decoder_ != nullptr) {
    obs::link_stats(metrics_, "decoder", decoder_->stats());
    obs::link_stats(metrics_, "decoder.cache", decoder_->cache().stats());
    const cache::CacheTier& cache = decoder_->cache();
    if (cache.has_l2()) link_tier_metrics(metrics_, "decoder.cache", cache);
    metrics_.probe_gauge(
        "decoder.cache.bytes_stored",
        [&cache] { return static_cast<double>(cache.store().bytes_used()); },
        obs::MergeOp::kSum);
    metrics_.probe_gauge(
        "decoder.cache.packets_stored",
        [&cache] { return static_cast<double>(cache.store().size()); },
        obs::MergeOp::kSum);
    metrics_.probe_gauge(
        "decoder.cache.fingerprints",
        [&cache] { return static_cast<double>(cache.fingerprint_count()); },
        obs::MergeOp::kSum);
    metrics_.probe_counter("decoder.cache.evictions", [&cache] {
      return cache.store().evictions();
    });
    const core::Decoder& dec = *decoder_;
    metrics_.probe_gauge(
        "decoder.epoch", [&dec] { return static_cast<double>(dec.epoch()); },
        obs::MergeOp::kMax);
    if (cfg.params.coded_repair) {
      repair_ = std::make_unique<fec::RepairDecoder>(cfg.params.repair);
      obs::link_stats(metrics_, "decoder.fec", repair_->stats());
      const fec::RepairDecoder& rd = *repair_;
      metrics_.probe_gauge(
          "decoder.fec.buffered",
          [&rd] { return static_cast<double>(rd.buffered()); },
          obs::MergeOp::kSum);
    }
  }
  if (cfg.metrics != nullptr) {
    cfg.metrics->add_provider([this] { return snapshot(); });
  }
}

obs::Snapshot DecoderGateway::snapshot() const {
  if (drop_run_ > 0) {
    run_hist_->record(drop_run_);
    drop_run_ = 0;
  }
  return metrics_.snapshot();
}

void DecoderGateway::add_observer(DecodeObserver fn) {
  observer_ = chain(std::move(observer_), std::move(fn));
}

void DecoderGateway::send_control(const packet::Packet& cause,
                                  const core::ControlMessage& msg) {
  feedback_(packet::make_packet(
      cause.ip.dst, cause.ip.src,
      static_cast<packet::IpProto>(core::kControlProto), msg.serialize()));
}

void DecoderGateway::receive(packet::PacketPtr pkt) {
  ++stats_.packets;
  process_received(std::move(pkt));
}

void DecoderGateway::process_received(packet::PacketPtr pkt) {
  if (repair_ != nullptr) {
    if (fec::is_repair_payload(pkt->payload)) {
      repair_->on_repair(pkt->payload, fec_out_);
      deliver_released();
      return;  // a repair packet carries no user data of its own
    }
    std::uint16_t gen_id = 0;
    std::uint8_t gen_seq = 0;
    if (core::peek_gen_tag(pkt->payload, gen_id, gen_seq)) {
      repair_->on_data(gen_id, gen_seq, std::move(pkt), fec_out_);
      deliver_released();
      return;
    }
    // Untagged (the encoder was not on the coded rung when it sent
    // this): bypasses the reorder cache, like pre-v3 traffic.
  }
  deliver(std::move(pkt));
}

void DecoderGateway::deliver_released() {
  for (fec::RepairDecoder::Released& r : fec_out_) {
    if (r.pkt != nullptr) deliver(std::move(r.pkt));
  }
  fec_out_.clear();
}

void DecoderGateway::drain_repair_buffer() {
  if (repair_ == nullptr) return;
  repair_->drain(fec_out_);
  deliver_released();
}

void DecoderGateway::deliver(packet::PacketPtr pkt) {
  if (decoder_ != nullptr) {
    const obs::SpanSampler::Token span = decode_span_.begin();
    const core::DecodeInfo info = decoder_->process(*pkt);
    decode_span_.end(span);
    if (observer_) observer_(*pkt, info);
    if (core::is_drop(info.status)) {
      ++stats_.dropped;
      ++drop_run_;
      if (feedback_) {
        if (nack_feedback_ &&
            info.status == core::DecodeStatus::kMissingFingerprint) {
          core::ControlMessage nack;
          nack.fingerprints.push_back(info.missing_fp);
          ++stats_.nacks_sent;
          send_control(*pkt, nack);
        }
        if (resilience_feedback_) {
          // Every undecodable drop is a perceived-loss sample for the
          // encoder-side estimator; the decoder only knows the host pair
          // of the dropped packet, so that is the report's granularity.
          core::ControlMessage report;
          report.type = core::ControlMessage::Type::kLossReport;
          report.host_key = core::host_key_of(pkt->ip.src, pkt->ip.dst);
          report.count = 1;
          ++stats_.loss_reports_sent;
          send_control(*pkt, report);
          if (info.resync) {
            core::ControlMessage resync;
            resync.type = core::ControlMessage::Type::kResyncRequest;
            resync.epoch = info.resync_epoch;
            ++stats_.resyncs_sent;
            send_control(*pkt, resync);
          }
        }
      }
      return;
    }
    // A packet made it through: the undecodable episode (if any) ended.
    if (drop_run_ > 0) {
      run_hist_->record(drop_run_);
      drop_run_ = 0;
    }
  }
  if (sink_) sink_(std::move(pkt));
}

}  // namespace bytecache::gateway
