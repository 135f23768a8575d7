// Sharded multi-worker DRE gateways: the data plane scaled across cores.
//
// Traffic is partitioned by a stable flow-key hash into N shared-nothing
// shards, each owning a private EncoderGateway / DecoderGateway (and so
// a private CacheTier), driven by one worker thread per shard and fed
// through fixed-capacity SPSC rings (util/spsc_ring.h).  A shard's codec
// is touched by exactly one thread, so the allocation-free hot path runs
// unmodified and lock-free inside it; the wire format is untouched, and
// with one shard the packet sequence through the codec is exactly the
// single-gateway sequence, so N=1 is bit-identical to EncoderGateway /
// DecoderGateway (pinned by tests/sharded_gateway_test.cc).
#pragma once
//
// Shard key: the unordered IP endpoint pair, NOT the TCP ports — the
// DRE shim replaces the payload, so ports are not parseable at the
// decoder, and the paper's gains lean on inter-flow sharing, so every
// flow whose bytes may reference each other (the host pair) must share
// one cache.  Symmetry routes reverse-direction packets (cumulative
// ACKs, NACK control) to the shard owning the forward flow.  A flow
// maps to exactly one shard and every stage is FIFO, so per-flow order
// is preserved end to end; cross-shard order is unspecified, as between
// unrelated flows on any real network.
//
// Threading contract: one thread calls submit*()/drain*() (the
// "driver"); workers are internal.  With GatewayConfig::threaded == false no
// threads or rings exist and submit*() runs the codec inline — the
// deterministic mode for tests, and the building block for callers that
// run shards on their own threads via submit_to_shard() (each shard
// index then owned by one calling thread).  Statistics and audits
// require quiescence: call drain_until_idle() first.
//
// The contract is compiler-enforced under Clang (-Wthread-safety, see
// util/thread_annotations.h and DESIGN.md §11): the driver-only surface
// claims `driver_role_` (so the registry and the stall histogram are
// provably driver-thread state), workers claim their shard rings'
// consumer roles, and every ring end is pushed/popped only under the
// matching role capability.

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "gateway/gateways.h"
#include "util/spsc_ring.h"
#include "util/thread_annotations.h"
#include "util/worker.h"

namespace bytecache::gateway {

/// Elements moved per ring operation on the burst paths: workers pop
/// commands in bursts of up to this many (one release store retires the
/// whole batch, and consecutive data packets flow through
/// receive_burst's prefetched loop), and drain() pops output likewise.
/// 32 amortizes the synchronizing stores ~30x while bounding the extra
/// latency a burst adds ahead of any one packet.
inline constexpr std::size_t kWorkerBurst = 32;

/// Stable, direction-symmetric shard key of a packet: a mixed hash of
/// the unordered {ip.src, ip.dst} pair.  Identical before and after DRE
/// encoding (the IP addresses survive; the protocol field does not
/// contribute).  Never returns 0.
[[nodiscard]] std::uint64_t shard_key_of(const packet::Packet& pkt);

/// Maps a shard key to a shard index in [0, shards).
[[nodiscard]] std::size_t shard_index_of(std::uint64_t key,
                                         std::size_t shards);

/// Sink invoked on a shard's worker thread with that shard's index;
/// installing it bypasses the output ring (see set_worker_sink).
using ShardPacketSink = std::function<void(std::size_t, packet::PacketPtr)>;

class ShardedEncoderGateway {
 public:
  /// Shard count, ring capacity, and threading come from `cfg` (see
  /// core::GatewayConfig); cfg.threaded == false means no worker threads
  /// — submit*() processes inline on the caller thread and sinks fire
  /// immediately (the deterministic, zero-thread mode).
  explicit ShardedEncoderGateway(const core::GatewayConfig& cfg);
  /// Stops the workers; output still in the rings is dropped (call
  /// drain_until_idle() first for a clean shutdown).
  ~ShardedEncoderGateway();

  ShardedEncoderGateway(const ShardedEncoderGateway&) = delete;
  ShardedEncoderGateway& operator=(const ShardedEncoderGateway&) = delete;

  /// Ordinary output: encoded packets are delivered by drain() on the
  /// driver thread, shard by shard (per-flow FIFO).  Set before the
  /// first submit.
  void set_sink(PacketSink sink) { sink_ = std::move(sink); }

  /// Worker-side output: each shard's packets are handed to `sink` on
  /// that shard's worker thread, bypassing the output ring (the bench
  /// chains the decoder shard here).  The sink must be thread-safe
  /// across shard indices (typically it only touches per-shard state).
  /// Set before the first submit; drain() then has nothing to do.
  void set_worker_sink(ShardPacketSink sink);

  /// Routes a forward data packet to its shard.  Blocks (draining the
  /// output stage meanwhile, so a full pipeline cannot deadlock) until
  /// the shard's input ring accepts it.  Driver thread only.
  void submit(packet::PacketPtr pkt);

  /// Non-blocking form: false (packet untouched) if the shard's input
  /// ring is full.  Driver thread only.
  bool try_submit(packet::PacketPtr& pkt);

  /// Reverse-path DRE control packet (NACK feedback) or reverse data/ACK
  /// packet to observe (ack-gated policy).  Routed through the owning
  /// shard's input ring so control actions stay ordered with the shard's
  /// data stream.  Driver thread only.
  void submit_control(packet::PacketPtr pkt);
  void submit_reverse(packet::PacketPtr pkt);

  /// Pops every completed packet from the per-shard output rings into
  /// the sink; returns the number delivered.  Driver thread only.
  std::size_t drain();

  /// Drains until every shard has consumed its input and the output
  /// rings are empty — the quiescence point for stats/audit/shutdown.
  void drain_until_idle();

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] const EncoderGateway& shard(std::size_t i) const {
    return shards_[i]->gw;
  }
  [[nodiscard]] EncoderGateway& shard(std::size_t i) { return shards_[i]->gw; }

  /// Aggregates across shards (quiescent callers only).
  [[nodiscard]] EncoderGatewayStats stats() const;
  [[nodiscard]] core::EncoderStats encoder_stats() const;
  [[nodiscard]] cache::CacheStats cache_stats() const;

  /// The per-shard registries merged into one value set (quiescent
  /// callers only): counters and histograms add across shards, gauges
  /// combine per their MergeOp, plus the driver-side ring-stall span.
  /// With one shard this equals the plain gateway's snapshot (pinned by
  /// tests/obs_test.cc).
  [[nodiscard]] obs::Snapshot snapshot() const {
    util::ScopedRole driver(driver_role_);
    return metrics_.snapshot();
  }

  /// Deep invariant audit (BC_AUDIT; quiescent callers only): every
  /// shard's encoder and rings, plus the submit/complete accounting.
  void audit() const;

 private:
  struct Cmd {
    enum class Kind : std::uint8_t { kData, kControl, kReverse };
    packet::PacketPtr pkt;
    Kind kind = Kind::kData;
  };

  struct Shard {
    Shard(const core::GatewayConfig& cfg, cache::L2Store* l2)
        : in(cfg.ring_capacity), out(cfg.ring_capacity), gw(cfg, l2) {}
    util::SpscRing<Cmd> in;
    util::SpscRing<packet::PacketPtr> out;
    EncoderGateway gw;
    std::thread thread;
    std::atomic<std::uint64_t> submitted{0};  // driver-thread writes
    std::atomic<std::uint64_t> completed{0};  // worker writes
    std::atomic<bool> stop{false};
    std::atomic<bool> abort{false};  // destructor: drop instead of block
  };

  void enqueue(Shard& s, Cmd cmd) BC_REQUIRES(driver_role_);
  std::size_t drain_some() BC_REQUIRES(driver_role_);
  void run_worker(Shard& s);
  void process(Shard& s, Cmd& cmd);
  /// Worker side: runs `cmds[0..n)` in order, feeding each run of
  /// consecutive data packets through the gateway's burst entry point.
  void process_burst(Shard& s, Cmd* cmds, std::size_t n);
  [[nodiscard]] Shard& shard_for(const packet::Packet& pkt) {
    return *shards_[shard_index_of(shard_key_of(pkt), shards_.size())];
  }

  bool threaded_;
  // One store for the whole gateway, one stripe per shard (created
  // before — and so destroyed after — the shards whose codecs attach).
  std::unique_ptr<cache::L2Store> l2_;  // null unless cfg.cache.has_l2()
  std::vector<std::unique_ptr<Shard>> shards_;
  // The sinks are set before the first submit and then only read: sink_
  // on the driver thread (drain), worker_sink_ on the workers.  That
  // set-before-start phase is a time-based contract no single role
  // capability expresses, so they stay unguarded.
  PacketSink sink_;
  ShardPacketSink worker_sink_;
  /// The capability of the one thread allowed to call submit*/drain*
  /// (claimed inside those entry points; see util/thread_annotations.h).
  util::ThreadRole driver_role_;
  // Registry attachment and the stall histogram are driver-thread state:
  // providers are attached in the constructor, read at snapshot(), and
  // the stall span is recorded on the submit slow path — all driver-side.
  obs::MetricsRegistry metrics_ BC_GUARDED_BY(driver_role_);
  obs::Histogram* stall_hist_ BC_GUARDED_BY(driver_role_) =
      nullptr;  // "...ring_stall_ns"; may be off
};

class ShardedDecoderGateway {
 public:
  /// See ShardedEncoderGateway: shards/rings/threading come from `cfg`,
  /// the decoder is enabled iff cfg.decoder_enabled().
  explicit ShardedDecoderGateway(const core::GatewayConfig& cfg);
  ~ShardedDecoderGateway();

  ShardedDecoderGateway(const ShardedDecoderGateway&) = delete;
  ShardedDecoderGateway& operator=(const ShardedDecoderGateway&) = delete;

  /// Decoded output, delivered by drain() on the driver thread.
  void set_sink(PacketSink sink) { sink_ = std::move(sink); }

  /// Worker-side decoded output (see ShardedEncoderGateway equivalent).
  void set_worker_sink(ShardPacketSink sink);

  /// Reverse-path sink for NACK control packets, delivered by drain()
  /// on the driver thread.
  void set_feedback(PacketSink feedback) { feedback_ = std::move(feedback); }

  /// Routes an incoming (possibly encoded) packet to its shard.  Blocks
  /// draining until the shard accepts it.  Driver thread only.
  void submit(packet::PacketPtr pkt);
  bool try_submit(packet::PacketPtr& pkt);

  /// Pushes a packet directly into shard `i`'s input, bypassing key
  /// derivation — for upstream stages that are themselves sharded with
  /// the same key (an encoder shard's worker feeds its decoder twin).
  /// Each shard index must be fed by exactly one thread.  In non-threaded
  /// mode the packet is decoded inline on the calling thread.
  void submit_to_shard(std::size_t i, packet::PacketPtr pkt);

  /// Delivers decoded packets (and NACK feedback) from the per-shard
  /// output rings; returns packets delivered.  Driver thread only.
  std::size_t drain();
  void drain_until_idle();

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] const DecoderGateway& shard(std::size_t i) const {
    return shards_[i]->gw;
  }
  [[nodiscard]] DecoderGateway& shard(std::size_t i) { return shards_[i]->gw; }

  [[nodiscard]] DecoderGatewayStats stats() const;
  [[nodiscard]] core::DecoderStats decoder_stats() const;
  [[nodiscard]] cache::CacheStats cache_stats() const;

  /// Cross-shard merged value set (see ShardedEncoderGateway).
  [[nodiscard]] obs::Snapshot snapshot() const {
    util::ScopedRole driver(driver_role_);
    return metrics_.snapshot();
  }

  void audit() const;

 private:
  struct Shard {
    Shard(const core::GatewayConfig& cfg, cache::L2Store* l2)
        : in(cfg.ring_capacity),
          out(cfg.ring_capacity),
          feedback(cfg.ring_capacity),
          gw(cfg, l2) {}
    util::SpscRing<packet::PacketPtr> in;
    util::SpscRing<packet::PacketPtr> out;
    util::SpscRing<packet::PacketPtr> feedback;
    DecoderGateway gw;
    std::thread thread;
    std::atomic<std::uint64_t> submitted{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<bool> stop{false};
    std::atomic<bool> abort{false};
  };

  void enqueue(Shard& s, packet::PacketPtr pkt) BC_REQUIRES(driver_role_);
  std::size_t drain_some() BC_REQUIRES(driver_role_);
  void run_worker(Shard& s);

  bool threaded_;
  // See ShardedEncoderGateway::l2_: one store, one stripe per shard.
  std::unique_ptr<cache::L2Store> l2_;  // null unless cfg.cache.has_l2()
  std::vector<std::unique_ptr<Shard>> shards_;
  // Set before the first submit, then read-only (see ShardedEncoderGateway).
  PacketSink sink_;
  ShardPacketSink worker_sink_;
  PacketSink feedback_;
  /// See ShardedEncoderGateway::driver_role_.  submit_to_shard() is the
  /// one entry point exempt from it: each shard index is owned by its own
  /// calling thread, which claims that shard's ring producer role instead.
  util::ThreadRole driver_role_;
  obs::MetricsRegistry metrics_ BC_GUARDED_BY(driver_role_);
  obs::Histogram* stall_hist_ BC_GUARDED_BY(driver_role_) =
      nullptr;  // "...ring_stall_ns"; may be off
};

}  // namespace bytecache::gateway
