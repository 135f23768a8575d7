#include "app/pipeline.h"

#include "core/control.h"
#include "packet/ipv4.h"
#include "packet/tcp.h"

namespace bytecache::app {
namespace {

std::unique_ptr<sim::LossProcess> make_loss(double rate, bool bursty) {
  if (rate <= 0.0) return std::make_unique<sim::NoLoss>();
  if (bursty) return sim::GilbertElliottLoss::with_average_loss(rate);
  return std::make_unique<sim::BernoulliLoss>(rate);
}

}  // namespace

Pipeline::Pipeline(sim::Simulator& sim, const PipelineConfig& config,
                   std::size_t flows)
    : config_(config), sim_(&sim) {
  PipelineConfig& cfg = config_;
  if (cfg.tcp.src_ip == 0) cfg.tcp.src_ip = packet::make_ip(10, 0, 0, 1);
  if (cfg.tcp.dst_ip == 0) cfg.tcp.dst_ip = packet::make_ip(10, 0, 1, 1);

  util::Rng root(cfg.seed);
  core::GatewayConfig gw_cfg = cfg.gateway_config();
  gw_cfg.metrics = &metrics_;  // both gateways become snapshot providers
  encoder_gw_ = std::make_unique<gateway::EncoderGateway>(gw_cfg);
  decoder_gw_ = std::make_unique<gateway::DecoderGateway>(gw_cfg);
  forward_link_ = std::make_unique<sim::Link>(
      sim, cfg.forward_link, make_loss(cfg.loss_rate, cfg.bursty_loss),
      root.fork(1));
  reverse_link_ = std::make_unique<sim::Link>(
      sim, cfg.reverse_link, make_loss(cfg.reverse_loss_rate, false),
      root.fork(2));
  // Every remaining component joins the registry as linked counters —
  // the increment sites stay plain field adds, read at snapshot time.
  obs::link_stats(metrics_, "link.forward", forward_link_->stats());
  obs::link_stats(metrics_, "link.reverse", reverse_link_->stats());

  for (std::size_t i = 0; i < flows; ++i) {
    tcp::TcpConfig tcp_cfg = cfg.tcp;
    tcp_cfg.dst_port = static_cast<std::uint16_t>(cfg.tcp.dst_port + i);
    tcp_cfg.isn = cfg.tcp.isn + static_cast<std::uint32_t>(i) * 0x1000000;
    senders_.push_back(std::make_unique<tcp::TcpSender>(
        sim, tcp_cfg,
        [this](packet::PacketPtr p) { encoder_gw_->receive(std::move(p)); }));
    receivers_.push_back(std::make_unique<tcp::TcpReceiver>(
        sim, tcp_cfg,
        [this](packet::PacketPtr p) { reverse_link_->send(std::move(p)); }));
    // All flows share the dotted names; snapshot-time merging adds their
    // counters, giving the aggregate the harness reports.
    obs::link_stats(metrics_, "tcp.sender", senders_.back()->stats());
    obs::link_stats(metrics_, "tcp.receiver", receivers_.back()->stats());
  }

  encoder_gw_->set_sink(
      [this](packet::PacketPtr p) { forward_link_->send(std::move(p)); });
  forward_link_->set_sink(
      [this](packet::PacketPtr p) { decoder_gw_->receive(std::move(p)); });
  if (cfg.dre.nack_feedback || cfg.dre.epoch_resync) {
    decoder_gw_->set_feedback([this](packet::PacketPtr p) {
      if (trace_ != nullptr) trace_feedback(*p);
      reverse_link_->send(std::move(p));
    });
  }
  if (cfg.dre.epoch_resync || cfg.dre.coded_repair) {
    // Channel drops on the constrained segment feed the encoder's loss
    // table (the simulation's stand-in for the transport-level loss
    // signals a real gateway would observe).
    forward_link_->set_drop_observer([this](const packet::Packet& p) {
      encoder_gw_->on_channel_drop(p);
    });
  }
  // The reverse path carries ACKs for the senders plus (optionally) DRE
  // control traffic for the encoder gateway; ACK-gated mode additionally
  // snoops the cumulative ACK as the packet passes the gateway.
  reverse_link_->set_sink([this](packet::PacketPtr p) {
    if (p->ip.protocol == core::kControlProto) {
      encoder_gw_->receive_control(*p);
      return;
    }
    encoder_gw_->observe_reverse(*p);
    server_edge_(std::move(p));
  });
  set_edges(
      [this](packet::PacketPtr p) {
        if (auto flow = flow_of(*p, /*forward=*/true)) {
          receivers_[*flow]->on_packet(*p);
        }
      },
      [this](packet::PacketPtr p) {
        if (auto flow = flow_of(*p, /*forward=*/false)) {
          senders_[*flow]->on_packet(*p);
        }
      });

  if (cfg.audit_interval_events != 0) {
    sim.request_audit_interval(cfg.audit_interval_events);
    auditor_id_ = sim.add_auditor([this] { audit(); });
  }
}

Pipeline::~Pipeline() {
  if (auditor_id_ != 0) sim_->remove_auditor(auditor_id_);
}

void Pipeline::set_edges(gateway::PacketSink client,
                         gateway::PacketSink server) {
  decoder_gw_->set_sink(std::move(client));
  server_edge_ = std::move(server);
}

void Pipeline::attach_trace(sim::Trace* trace) {
  trace_ = trace;
  forward_link_->set_trace(trace);
  reverse_link_->set_trace(trace);
  encoder_gw_->add_observer([this](const core::EncodeInfo& info) {
    const sim::SimTime now = sim_->now();
    if (info.flushed) trace_->record(now, sim::TraceEvent::kFlush, info.uid);
    if (info.reference) {
      trace_->record(now, sim::TraceEvent::kReference, info.uid);
    }
    if (info.encoded) {
      trace_->record(now, sim::TraceEvent::kEncode, info.uid, info.sent_size);
    }
  });
  decoder_gw_->add_observer(
      [this](const packet::Packet& pkt, const core::DecodeInfo& info) {
        decoded_uid_ = pkt.uid;
        if (info.status == core::DecodeStatus::kDecoded) {
          trace_->record(sim_->now(), sim::TraceEvent::kDecode, pkt.uid,
                         info.restored_size);
        } else if (core::is_drop(info.status)) {
          trace_->record(sim_->now(), sim::TraceEvent::kDecodeDrop, pkt.uid,
                         static_cast<std::uint64_t>(info.status));
        }
      });
}

void Pipeline::trace_feedback(const packet::Packet& ctrl) {
  auto msg = core::ControlMessage::parse(ctrl.payload);
  if (!msg) return;
  sim::TraceEvent event = sim::TraceEvent::kNack;
  if (msg->type == core::ControlMessage::Type::kLossReport) {
    event = sim::TraceEvent::kLossReport;
  } else if (msg->type == core::ControlMessage::Type::kResyncRequest) {
    event = sim::TraceEvent::kResync;
  }
  trace_->record(sim_->now(), event, decoded_uid_);
}

void Pipeline::audit() const {
  if (const core::Encoder* enc = encoder_gw_->encoder()) enc->audit();
  if (const core::Decoder* dec = decoder_gw_->decoder()) dec->audit();
  for (const auto& s : senders_) s->audit();
  for (const auto& r : receivers_) r->audit();
}

std::optional<std::size_t> Pipeline::flow_of(const packet::Packet& pkt,
                                             bool forward) const {
  if (pkt.proto() != packet::IpProto::kTcp) return std::nullopt;
  auto h = packet::TcpHeader::parse_unchecked(pkt.payload);
  if (!h) return std::nullopt;
  const std::uint16_t port = forward ? h->dst_port : h->src_port;
  const std::uint16_t base = config_.tcp.dst_port;
  if (port < base) return std::nullopt;
  const std::size_t idx = port - base;
  if (idx >= senders_.size()) return std::nullopt;
  return idx;
}

}  // namespace bytecache::app
