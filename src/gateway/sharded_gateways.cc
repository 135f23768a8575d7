#include "gateway/sharded_gateways.h"

#include <array>
#include <chrono>

#include "core/flow.h"
#include "util/check.h"

namespace bytecache::gateway {

std::uint64_t shard_key_of(const packet::Packet& pkt) {
  // Unordered endpoint pair: forward data, reverse ACKs, and control
  // packets (NACK, resync request, loss report) of one host pair all
  // hash identically.  Delegates to core::host_key_of so control
  // messages keyed by host pair always route to the owning shard.
  return core::host_key_of(pkt.ip.src, pkt.ip.dst);
}

std::size_t shard_index_of(std::uint64_t key, std::size_t shards) {
  BC_CHECK(shards > 0) << "shard_index_of with zero shards";
  return static_cast<std::size_t>(key % shards);
}

namespace {

/// Blocking ring push for the worker-side output path: spins politely;
/// drops the element if the gateway is being torn down (`abort`).  The
/// caller is by contract the one producer of `ring` (the shard's worker),
/// so the producer role is claimed here.
template <typename T>
void push_or_abort(util::SpscRing<T>& ring, T v,
                   const std::atomic<bool>& abort) {
  util::ScopedRole producer(ring.producer_role);
  util::Backoff backoff;
  while (!ring.try_push(v)) {
    if (abort.load(std::memory_order_acquire)) return;
    backoff.pause();
  }
}

}  // namespace

// --------------------------------------------------------------- encoder --

ShardedEncoderGateway::ShardedEncoderGateway(const core::GatewayConfig& cfg)
    : threaded_(cfg.threaded) {
  BC_CHECK(cfg.shards >= 1) << "a sharded gateway needs at least 1 shard";
  // Per-shard gateways get a copy of the config with no parent registry:
  // this gateway merges their registries itself (snapshot providers
  // below), so attaching each shard to cfg.metrics too would double
  // count.
  core::GatewayConfig shard_cfg = cfg;
  shard_cfg.metrics = nullptr;
  if (cfg.span_sample_every > 0) {
    stall_hist_ = &metrics_.histogram("gateway.encoder.ring_stall_ns");
  }
  // One L2 store spans the gateway; each shard's codec claims a stripe.
  if (cfg.policy != core::PolicyKind::kNone && cfg.cache.has_l2()) {
    l2_ = std::make_unique<cache::L2Store>(cfg.cache, cfg.shards);
  }
  shards_.reserve(cfg.shards);
  for (std::size_t i = 0; i < cfg.shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(shard_cfg, l2_.get()));
    Shard& s = *shards_.back();
    metrics_.add_provider([&s] { return s.gw.snapshot(); });
    // The per-shard gateway's sink runs wherever the shard's codec runs:
    // on the worker (threaded) or on the driver thread (inline mode).
    s.gw.set_sink([this, &s, i](packet::PacketPtr pkt) {
      if (worker_sink_) {
        worker_sink_(i, std::move(pkt));
      } else if (threaded_) {
        push_or_abort(s.out, std::move(pkt), s.abort);
      } else if (sink_) {
        sink_(std::move(pkt));
      }
    });
  }
  if (cfg.metrics != nullptr) {
    cfg.metrics->add_provider([this] { return snapshot(); });
  }
  if (threaded_) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard* s = shards_[i].get();
      s->thread = std::thread([this, s] { run_worker(*s); });
    }
  }
}

ShardedEncoderGateway::~ShardedEncoderGateway() {
  for (auto& s : shards_) {
    s->abort.store(true, std::memory_order_release);
    s->stop.store(true, std::memory_order_release);
  }
  for (auto& s : shards_) {
    if (s->thread.joinable()) s->thread.join();
  }
}

void ShardedEncoderGateway::set_worker_sink(ShardPacketSink sink) {
  worker_sink_ = std::move(sink);
}

void ShardedEncoderGateway::process(Shard& s, Cmd& cmd) {
  switch (cmd.kind) {
    case Cmd::Kind::kData:
      s.gw.receive(std::move(cmd.pkt));
      break;
    case Cmd::Kind::kControl:
      s.gw.receive_control(*cmd.pkt);
      cmd.pkt.reset();
      break;
    case Cmd::Kind::kReverse:
      s.gw.observe_reverse(*cmd.pkt);
      cmd.pkt.reset();
      break;
  }
}

void ShardedEncoderGateway::process_burst(Shard& s, Cmd* cmds,
                                          std::size_t n) {
  // Runs of consecutive data packets go through the gateway's burst
  // entry point (next-payload prefetch, one codec loop); control and
  // reverse commands break the run and run singly, preserving exactly
  // the order a one-at-a-time pop loop would execute.
  std::array<packet::PacketPtr, kWorkerBurst> run;
  std::size_t i = 0;
  while (i < n) {
    if (cmds[i].kind != Cmd::Kind::kData) {
      process(s, cmds[i]);
      ++i;
      continue;
    }
    std::size_t len = 0;
    while (i + len < n && cmds[i + len].kind == Cmd::Kind::kData) {
      run[len] = std::move(cmds[i + len].pkt);
      ++len;
    }
    s.gw.receive_burst({run.data(), len});
    i += len;
  }
}

void ShardedEncoderGateway::run_worker(Shard& s) {
  // This thread is the one consumer of the shard's input ring for the
  // gateway's whole lifetime (the output side is claimed inside
  // push_or_abort by the shard gateway's sink).
  util::ScopedRole consumer(s.in.consumer_role);
  util::Backoff backoff;
  std::array<Cmd, kWorkerBurst> burst;
  for (;;) {
    std::size_t n = s.in.pop_burst(burst.data(), burst.size());
    if (n == 0 && s.stop.load(std::memory_order_acquire)) {
      // The driver stops submitting before setting `stop`; one final pop
      // catches a push that raced the flag.
      n = s.in.pop_burst(burst.data(), burst.size());
      if (n == 0) break;
    }
    if (n > 0) {
      backoff.reset();
      process_burst(s, burst.data(), n);
      // One release publishes the whole batch's completion (pairs with
      // drain_until_idle's acquire).
      s.completed.fetch_add(n, std::memory_order_release);
      continue;
    }
    backoff.pause();
  }
}

void ShardedEncoderGateway::enqueue(Shard& s, Cmd cmd) {
  if (!threaded_) {
    s.submitted.fetch_add(1, std::memory_order_relaxed);
    process(s, cmd);
    s.completed.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // The driver is the one producer of every shard's input ring.
  util::ScopedRole producer(s.in.producer_role);
  s.submitted.fetch_add(1, std::memory_order_relaxed);
  if (s.in.try_push(cmd)) return;
  // Ring full: wait, keeping the output stage moving meanwhile — the
  // driver thread is also the drain consumer, so a full pipeline backs
  // up here instead of deadlocking.  Clock reads happen only on this
  // slow path, so the stall span costs nothing when rings keep up.
  const bool timed = stall_hist_ != nullptr;
  const auto t0 = timed ? std::chrono::steady_clock::now()
                        : std::chrono::steady_clock::time_point{};
  util::Backoff backoff;
  do {
    if (drain_some() == 0) backoff.pause();
  } while (!s.in.try_push(cmd));
  if (timed) {
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    stall_hist_->record(ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
  }
}

void ShardedEncoderGateway::submit(packet::PacketPtr pkt) {
  util::ScopedRole driver(driver_role_);
  Shard& s = shard_for(*pkt);
  enqueue(s, Cmd{std::move(pkt), Cmd::Kind::kData});
}

void ShardedEncoderGateway::submit_control(packet::PacketPtr pkt) {
  util::ScopedRole driver(driver_role_);
  Shard& s = shard_for(*pkt);
  enqueue(s, Cmd{std::move(pkt), Cmd::Kind::kControl});
}

void ShardedEncoderGateway::submit_reverse(packet::PacketPtr pkt) {
  util::ScopedRole driver(driver_role_);
  Shard& s = shard_for(*pkt);
  enqueue(s, Cmd{std::move(pkt), Cmd::Kind::kReverse});
}

std::size_t ShardedEncoderGateway::drain() {
  util::ScopedRole driver(driver_role_);
  return drain_some();
}

std::size_t ShardedEncoderGateway::drain_some() {
  std::size_t delivered = 0;
  std::array<packet::PacketPtr, kWorkerBurst> burst;
  for (auto& s : shards_) {
    // The driver is the one consumer of every shard's output ring.
    util::ScopedRole consumer(s->out.consumer_role);
    std::size_t n;
    while ((n = s->out.pop_burst(burst.data(), burst.size())) > 0) {
      delivered += n;
      for (std::size_t i = 0; i < n; ++i) {
        if (sink_) sink_(std::move(burst[i]));
        burst[i].reset();
      }
    }
  }
  return delivered;
}

void ShardedEncoderGateway::drain_until_idle() {
  util::ScopedRole driver(driver_role_);
  util::Backoff backoff;
  for (;;) {
    if (drain_some() > 0) backoff.reset();
    bool idle = true;
    for (auto& s : shards_) {
      // Acquire on `completed` orders the check after the worker's last
      // output push, so the final drain below observes everything.
      if (s->completed.load(std::memory_order_acquire) !=
          s->submitted.load(std::memory_order_relaxed)) {
        idle = false;
        break;
      }
    }
    if (idle) {
      drain_some();
      bool empty = true;
      for (auto& s : shards_) {
        if (!s->out.empty()) empty = false;
      }
      if (empty) return;
    }
    backoff.pause();
  }
}

EncoderGatewayStats ShardedEncoderGateway::stats() const {
  EncoderGatewayStats total;
  for (const auto& s : shards_) {
    merge_into(total, s->gw.stats());
  }
  return total;
}

core::EncoderStats ShardedEncoderGateway::encoder_stats() const {
  core::EncoderStats total;
  for (const auto& s : shards_) {
    if (s->gw.encoder() != nullptr) {
      core::merge_into(total, s->gw.encoder()->stats());
    }
  }
  return total;
}

void ShardedEncoderGateway::audit() const {
  if (!util::kAuditEnabled) return;
  std::uint64_t packets = 0;
  for (const auto& s : shards_) {
    s->in.audit();
    s->out.audit();
    if (s->gw.encoder() != nullptr) s->gw.encoder()->audit();
    const std::uint64_t submitted =
        s->submitted.load(std::memory_order_acquire);
    const std::uint64_t completed =
        s->completed.load(std::memory_order_acquire);
    BC_AUDIT(completed <= submitted)
        << "shard completed " << completed << " of " << submitted
        << " submitted commands";
    packets += s->gw.stats().packets;
  }
  const EncoderGatewayStats total = stats();
  BC_AUDIT(total.packets == packets)
      << "aggregated packet count " << total.packets
      << " disagrees with per-shard sum " << packets;
}

// --------------------------------------------------------------- decoder --

ShardedDecoderGateway::ShardedDecoderGateway(const core::GatewayConfig& cfg) {
  BC_CHECK(cfg.shards >= 1) << "a sharded gateway needs at least 1 shard";
  // See ShardedEncoderGateway: shards attach to this registry, not the
  // parent's, to avoid double counting.
  core::GatewayConfig shard_cfg = cfg;
  shard_cfg.metrics = nullptr;
  // One L2 store spans the gateway; each shard's codec claims a stripe.
  if (cfg.decoder_enabled() && cfg.cache.has_l2()) {
    l2_ = std::make_unique<cache::L2Store>(cfg.cache, cfg.shards);
  }
  shards_.reserve(cfg.shards);
  for (std::size_t i = 0; i < cfg.shards; ++i) {
    shards_.push_back(std::make_unique<DecoderGateway>(shard_cfg, l2_.get()));
    DecoderGateway& gw = *shards_.back();
    metrics_.add_provider([&gw] { return gw.snapshot(); });
    // Both sinks fire inline, on the thread that called submit_to_shard.
    gw.set_sink([this, i](packet::PacketPtr pkt) {
      if (worker_sink_) worker_sink_(i, std::move(pkt));
    });
    gw.set_feedback([this](packet::PacketPtr pkt) {
      if (feedback_) feedback_(std::move(pkt));
    });
  }
  if (cfg.metrics != nullptr) {
    cfg.metrics->add_provider([this] { return snapshot(); });
  }
}

void ShardedDecoderGateway::submit_to_shard(std::size_t i,
                                            packet::PacketPtr pkt) {
  BC_CHECK(i < shards_.size())
      << "submit_to_shard(" << i << ") on a gateway of " << shards_.size()
      << " shards";
  if (i >= shards_.size()) return;  // the check reported; drop the packet
  shards_[i]->receive(std::move(pkt));
}

DecoderGatewayStats ShardedDecoderGateway::stats() const {
  DecoderGatewayStats total;
  for (const auto& gw : shards_) {
    merge_into(total, gw->stats());
  }
  return total;
}

core::DecoderStats ShardedDecoderGateway::decoder_stats() const {
  core::DecoderStats total;
  for (const auto& gw : shards_) {
    if (gw->decoder() != nullptr) {
      core::merge_into(total, gw->decoder()->stats());
    }
  }
  return total;
}

void ShardedDecoderGateway::audit() const {
  if (!util::kAuditEnabled) return;
  std::uint64_t packets = 0;
  for (const auto& gw : shards_) {
    if (gw->decoder() != nullptr) gw->decoder()->audit();
    packets += gw->stats().packets;
  }
  const DecoderGatewayStats total = stats();
  BC_AUDIT(total.packets == packets)
      << "aggregated packet count " << total.packets
      << " disagrees with per-shard sum " << packets;
}

}  // namespace bytecache::gateway
