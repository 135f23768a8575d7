#include "tests/sim_transport.h"

#include "packet/packet.h"
#include "sim/loss_model.h"
#include "util/rng.h"

namespace bytecache::net {

/// One end: send() feeds its direction's link; link delivery on the
/// opposite end re-serializes into deliver().
class SimTransportPair::End final : public Transport {
 public:
  End(SimTransportPair& pair, sim::Link& out) : pair_(pair), out_(out) {}

  bool send(util::BytesView datagram) override {
    packet::PacketPtr pkt = packet::from_wire(datagram);
    if (pkt == nullptr) {
      ++pair_.malformed_;
      ++stats_.send_failures;
      return false;
    }
    ++stats_.datagrams_out;
    stats_.bytes_out += datagram.size();
    out_.send(std::move(pkt));
    return true;
  }

  void on_link_delivery(const packet::Packet& pkt) {
    const util::Bytes wire = packet::to_wire(pkt);
    deliver(wire);
  }

 private:
  SimTransportPair& pair_;
  sim::Link& out_;
};

SimTransportPair::SimTransportPair(sim::Simulator& sim,
                                   const SimTransportConfig& config) {
  forward_ = std::make_unique<sim::Link>(
      sim, config.forward,
      std::make_unique<sim::BernoulliLoss>(config.forward_loss),
      util::Rng(config.seed));
  reverse_ = std::make_unique<sim::Link>(
      sim, config.reverse,
      std::make_unique<sim::BernoulliLoss>(config.reverse_loss),
      util::Rng(config.seed + 1));
  a_ = std::make_unique<End>(*this, *forward_);
  b_ = std::make_unique<End>(*this, *reverse_);
  forward_->set_sink(
      [this](packet::PacketPtr pkt) { b_->on_link_delivery(*pkt); });
  reverse_->set_sink(
      [this](packet::PacketPtr pkt) { a_->on_link_delivery(*pkt); });
}

// Out of line for the incomplete End in the header.
SimTransportPair::~SimTransportPair() = default;

Transport& SimTransportPair::end_a() { return *a_; }
Transport& SimTransportPair::end_b() { return *b_; }

}  // namespace bytecache::net
