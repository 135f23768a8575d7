// Sharded multi-worker DRE gateways: the data plane scaled across cores.
//
// Traffic is partitioned by a stable flow-key hash into N shared-nothing
// shards, each owning a private EncoderGateway / DecoderGateway (and so
// a private CacheTier).  Each encoder shard is driven by its own worker
// thread fed through fixed-capacity SPSC rings (util/spsc_ring.h); each
// decoder shard decodes inline on the thread that feeds it — in the
// deployment, the encoder shard's worker, so a shard's whole pipeline
// shares one thread.  A shard's codec is touched by exactly one thread,
// so the allocation-free hot path runs unmodified and lock-free inside
// it; the wire format is untouched, and with one shard the packet
// sequence through the codec is exactly the single-gateway sequence, so
// N=1 is bit-identical to EncoderGateway / DecoderGateway (pinned by
// tests/sharded_gateway_test.cc).
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
// Threading contract.  Encoder: one thread calls submit*()/drain*() (the
// "driver"); workers are internal.  With GatewayConfig::threaded == false
// no threads or rings exist and submit*() runs the codec inline — the
// deterministic mode for tests.  Statistics and audits require
// quiescence: call drain_until_idle() first.  Decoder: no threads or
// rings at all; submit_to_shard(i, pkt) decodes on the calling thread,
// and each shard index is fed by one thread at a time (typically encoder
// shard i's worker through the encoder's worker sink).  Its statistics
// and audits require that no thread is feeding it.
//
// The encoder's contract is compiler-enforced under Clang
// (-Wthread-safety, see util/thread_annotations.h and DESIGN.md §11):
// the driver-only surface claims `driver_role_` (so the registry and the
// stall histogram are provably driver-thread state), workers claim their
// shard rings' consumer roles, and every ring end is pushed/popped only
// under the matching role capability.

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

/// Elements moved per ring operation on the encoder's burst paths: its
/// workers pop commands in bursts of up to this many (one release store
/// retires the whole batch, and consecutive data packets flow through
/// EncoderGateway::receive_burst's prefetched loop), and drain() pops
/// output likewise.
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

/// Sink invoked with a shard's index on the thread that runs that shard's
/// codec: an encoder shard's worker (installing it bypasses the output
/// ring), or whichever thread feeds a decoder shard.
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
  /// N = cfg.shards DecoderGateway shards sharing one L2 store, one
  /// stripe each; the decoder is enabled iff cfg.decoder_enabled().  It
  /// has no threads or rings of its own, so cfg.ring_capacity and
  /// cfg.threaded are not read.
  explicit ShardedDecoderGateway(const core::GatewayConfig& cfg);

  ShardedDecoderGateway(const ShardedDecoderGateway&) = delete;
  ShardedDecoderGateway& operator=(const ShardedDecoderGateway&) = delete;

  /// Decoded output: shard i's packets are handed to `sink` with index i
  /// on the thread that fed shard i.  The sink must be thread-safe across
  /// shard indices (typically it only touches per-shard state).  Set
  /// before the first submit.
  void set_worker_sink(ShardPacketSink sink) { worker_sink_ = std::move(sink); }

  /// Reverse-path sink for control packets (NACKs, loss reports, resync
  /// requests), called inline on the thread that fed the shard whose
  /// decoder sends them.  Set before the first submit.
  void set_feedback(PacketSink feedback) { feedback_ = std::move(feedback); }

  /// Decodes an incoming (possibly encoded) packet on shard `i`, inline
  /// on the calling thread.  The caller routes by the same key as the
  /// encoder — typically shard_index_of(shard_key_of(*pkt), shard_count()),
  /// or the index of the encoder shard whose worker feeds it.  Each shard
  /// index must be fed by one thread at a time.  An out-of-range index
  /// fails a check and the packet is dropped.
  void submit_to_shard(std::size_t i, packet::PacketPtr pkt);

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] const DecoderGateway& shard(std::size_t i) const {
    return *shards_[i];
  }
  [[nodiscard]] DecoderGateway& shard(std::size_t i) { return *shards_[i]; }

  /// Aggregates across shards (quiescent callers only: no thread is
  /// feeding a shard).
  [[nodiscard]] DecoderGatewayStats stats() const;
  [[nodiscard]] core::DecoderStats decoder_stats() const;

  /// The per-shard registries merged into one value set (quiescent
  /// callers only; see ShardedEncoderGateway::snapshot).
  [[nodiscard]] obs::Snapshot snapshot() const { return metrics_.snapshot(); }

  /// Deep invariant audit (BC_AUDIT; quiescent callers only): every
  /// shard's decoder, plus the aggregated packet count.
  void audit() const;

 private:
  // See ShardedEncoderGateway::l2_: one store, one stripe per shard.
  std::unique_ptr<cache::L2Store> l2_;  // null unless cfg.cache.has_l2()
  std::vector<std::unique_ptr<DecoderGateway>> shards_;
  // Set before the first submit, then only read by the feeding threads.
  ShardPacketSink worker_sink_;
  PacketSink feedback_;
  obs::MetricsRegistry metrics_;
};

}  // namespace bytecache::gateway
