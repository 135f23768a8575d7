#include "app/http_session.h"

#include "packet/tcp.h"

namespace bytecache::app {

/// One request/response pair: two unidirectional TCP halves of the same
/// logical connection.  Packets are demultiplexed by whether they carry
/// data (segments of the half flowing toward the receiver) or are pure
/// ACKs (feedback for the half's sender).
struct HttpSession::Exchange {
  tcp::TcpSender request_tx;     // client -> server (request bytes)
  tcp::TcpReceiver request_rx;   // at the server
  tcp::TcpSender response_tx;    // server -> client (response bytes)
  tcp::TcpReceiver response_rx;  // at the client
  bool response_started = false;
  bool done = false;
  bool stalled = false;
  sim::SimTime started_at = 0;
  sim::SimTime finished_at = 0;

  Exchange(sim::Simulator& sim, const tcp::TcpConfig& req_cfg,
           const tcp::TcpConfig& resp_cfg, Pipeline& pipeline)
      : request_tx(sim, req_cfg,
                   [&pipeline](packet::PacketPtr p) {
                     pipeline.reverse_link().send(std::move(p));
                   }),
        request_rx(sim, req_cfg,
                   [&pipeline](packet::PacketPtr p) {
                     // Server's ACKs travel server->client: through the
                     // encoder path like all server-originated packets.
                     pipeline.encoder_gw().receive(std::move(p));
                   }),
        response_tx(sim, resp_cfg,
                    [&pipeline](packet::PacketPtr p) {
                      pipeline.encoder_gw().receive(std::move(p));
                    }),
        response_rx(sim, resp_cfg, [&pipeline](packet::PacketPtr p) {
          pipeline.reverse_link().send(std::move(p));
        }) {}
};

HttpSession::HttpSession(sim::Simulator& sim, const PipelineConfig& config,
                         HttpServer server)
    : sim_(sim), server_(std::move(server)), pipeline_(sim, config, 0) {
  pipeline_.set_edges(
      // Client side: data segments belong to the response; pure ACKs
      // feed the request sender.
      [this](packet::PacketPtr p) {
        if (current_ == nullptr) return;
        if (p->payload.size() > packet::TcpHeader::kSize) {
          current_->response_rx.on_packet(*p);
        } else {
          current_->request_tx.on_packet(*p);
        }
      },
      // Server side: data segments are the request; pure ACKs feed the
      // response sender.
      [this](packet::PacketPtr p) {
        if (current_ == nullptr) return;
        if (p->payload.size() > packet::TcpHeader::kSize) {
          current_->request_rx.on_packet(*p);
        } else {
          current_->response_tx.on_packet(*p);
        }
      });
}

HttpSession::~HttpSession() = default;

FetchResult HttpSession::fetch(const std::string& path,
                               sim::SimTime deadline) {
  const std::uint16_t client_port =
      static_cast<std::uint16_t>(40000 + fetches_);
  const tcp::TcpConfig& tcp = pipeline_.config().tcp;
  tcp::TcpConfig req_cfg = tcp;
  req_cfg.src_ip = tcp.dst_ip;  // client originates
  req_cfg.dst_ip = tcp.src_ip;
  req_cfg.src_port = client_port;
  req_cfg.dst_port = 80;
  req_cfg.isn = 50'000 + static_cast<std::uint32_t>(fetches_) * 0x10000;
  tcp::TcpConfig resp_cfg = tcp;
  resp_cfg.src_port = 80;
  resp_cfg.dst_port = client_port;
  resp_cfg.isn = 90'000 + static_cast<std::uint32_t>(fetches_) * 0x20000;
  ++fetches_;

  current_ = std::make_unique<Exchange>(sim_, req_cfg, resp_cfg, pipeline_);
  Exchange& ex = *current_;
  ex.started_at = sim_.now();

  // Server: once the request fully arrives, serve the response.
  ex.request_rx.set_on_progress([this, &ex](std::uint64_t) {
    if (ex.response_started) return;
    auto req = HttpRequest::parse(ex.request_rx.stream());
    if (!req) return;
    ex.response_started = true;
    ex.response_tx.start(server_.handle(*req).serialize());
  });

  // Client: done when the response is complete.
  ex.response_rx.set_on_progress([this, &ex](std::uint64_t) {
    auto missing = HttpResponse::bytes_missing(ex.response_rx.stream());
    if (missing && *missing == 0 && !ex.done) {
      ex.done = true;
      ex.finished_at = sim_.now();
    }
  });
  auto abort_handler = [&ex](std::uint64_t) { ex.stalled = true; };
  ex.request_tx.set_on_abort(abort_handler);
  ex.response_tx.set_on_abort(abort_handler);

  HttpRequest req;
  req.path = path;
  req.headers = {{"Host", "server.example"},
                 {"User-Agent", "bytecache-sim/1.0"},
                 {"Accept", "*/*"}};
  ex.request_tx.start(req.serialize());

  const sim::SimTime give_up = sim_.now() + deadline;
  while (!ex.done && !ex.stalled && sim_.now() < give_up && sim_.step()) {
  }

  FetchResult result;
  result.stalled = ex.stalled || (!ex.done && sim_.now() >= give_up);
  if (ex.done) {
    auto resp = HttpResponse::parse(ex.response_rx.stream());
    if (resp) {
      result.ok = true;
      result.status = resp->status;
      result.response = std::move(*resp);
      result.duration_s = sim::to_seconds(ex.finished_at - ex.started_at);
    }
  }
  current_.reset();
  return result;
}

}  // namespace bytecache::app
