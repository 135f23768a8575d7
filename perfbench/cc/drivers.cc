#include "drivers.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/factory.h"
#include "gateway/sharded_gateways.h"
#include "ledger.h"
#include "packet/ipv4.h"
#include "stats.h"

namespace perfbench {

namespace core = bytecache::core;
namespace gateway = bytecache::gateway;
namespace packet = bytecache::packet;
using bytecache::util::Bytes;
using bytecache::util::BytesView;

namespace {

// ---- Method constants ----------------------------------------------------

/// Set-up is repeated this many times per run and its median reported.
constexpr int kSetupReps = 5;
/// Closed-loop samples last at least this long (one goodput sample each).
constexpr double kBlockS = 0.2;
/// Stationarity guard: first-half vs second-half sample medians, and
/// resident-size growth from the end of warm-up to the end of the run.
/// Host noise on a shared 4-core VM moves the halves apart by up to ~30%,
/// so the drift limit only catches a halving; growing state (an unbounded
/// cache grows ~350 MB/s) shows first, and deterministically, in the RSS.
constexpr double kMaxDrift = 0.5;
constexpr long kMaxRssGrowthKb = 16 * 1024;
/// Order-independence check: identical twin codecs, alternated block by
/// block in one process, must agree within this share (host noise alone
/// reaches ~10%; the order effect this guards against was 2x).
constexpr double kMaxTwinSkew = 0.35;
/// Latency samples kept per run per second of measurement.
constexpr std::size_t kSamplesPerSecond = 150'000;

/// tunnel_open rates, frozen: the low rate leaves every process mostly
/// idle (latency is the path's own), the high rate keeps them busy
/// without loss on a 4-core host.  kLatencyLimitUs bounds p99 in the
/// max-rate search.
constexpr double kLowRatePps = 5'000;
constexpr double kHighRatePps = 20'000;
constexpr double kLatencyLimitUs = 2'000;
constexpr std::size_t kSources = 4;

/// Codec configuration of each workload.
core::GatewayConfig hot_replay_config() {
  core::GatewayConfig cfg;  // paper defaults: naive, value sampling w=16 k=4
  cfg.policy = core::PolicyKind::kNaive;
  // Bounded so a long replay measures a steady cache, not a growing one;
  // 2 MiB keeps File 1's wire ratio identical to the unbounded cache.
  cfg.cache.l1_bytes = 2 * 1024 * 1024;
  return cfg;
}

core::GatewayConfig churn_mix_config() {
  core::GatewayConfig cfg;
  // Naive, not tcp_seq: with a bounded L1, a policy that rejects cache
  // hits desynchronizes the two caches (an encoder-side lookup refreshes
  // the hit packet's LRU position, the decoder never looks it up), and a
  // benchmark workload must not fail operations.  See README.md.
  cfg.policy = core::PolicyKind::kNaive;
  cfg.params.epoch_resync = true;
  cfg.params.coded_repair = true;
  cfg.cache.l1_bytes = 256 * 1024;
  cfg.cache.l2_bytes = 4 * 1024 * 1024;
  cfg.cache.per_host_pair_bytes = 128 * 1024;
  // The driver thread plus the shard workers leave a core to the rest of
  // the system: fully subscribing a 4-core VM doubled the run-to-run
  // spread of every closed-loop metric.
  const unsigned cores = std::thread::hardware_concurrency();
  cfg.shards = std::clamp<std::size_t>(cores > 2 ? cores - 2 : 1, 1, 2);
  cfg.ring_capacity = 512;
  cfg.threaded = true;
  return cfg;
}

core::GatewayConfig tunnel_config() {
  core::GatewayConfig cfg;
  cfg.policy = core::PolicyKind::kNaive;
  cfg.cache.l1_bytes = 2 * 1024 * 1024;
  return cfg;
}

double mb_per_s(double bytes, double ns) { return ratio(bytes * 1e3, ns); }

std::size_t sample_cap(double seconds) {
  return static_cast<std::size_t>(std::min(seconds, 60.0) * kSamplesPerSecond);
}

void check_stationary(const std::vector<double>& series, const char* what,
                      Report& r) {
  if (series.size() < 4) {
    r.fail("%s: only %zu samples; the run is too short to judge", what,
           series.size());
    return;
  }
  const std::size_t half = series.size() / 2;
  const double a = median({series.begin(), series.begin() + half});
  const double b = median({series.end() - half, series.end()});
  const double drift = skew(a, b);
  r.note("stationarity: %s first-half median %.4g, second-half %.4g (drift %.3f)",
         what, a, b, drift);
  if (drift > kMaxDrift) {
    r.fail("stationarity: %s drifted %.1f%% between run halves", what,
           100 * drift);
  }
}

void check_rss(long after_warmup_kb, long end_kb, Report& r) {
  const long growth = end_kb - after_warmup_kb;
  r.note("stationarity: RSS %.1f MB after warm-up, %.1f MB at end",
         after_warmup_kb / 1024.0, end_kb / 1024.0);
  if (growth > std::max(kMaxRssGrowthKb, after_warmup_kb / 10)) {
    r.fail("stationarity: resident size grew %.1f MB during the run",
           growth / 1024.0);
  }
}

/// A latency tail: the median over consecutive windows of 1000 samples
/// (ten beyond each window's p99) of every window's p99, so the few
/// windows a host-level stall lands in do not decide the run.
Percentile tail_p99(const std::vector<double>& lat_us) {
  return windowed_percentile(lat_us, 0.99, 1000);
}

/// Sets the p50 (plain median) and the windowed p99 of `lat_us`.
void report_latency(const std::vector<double>& lat_us, const char* p50_name,
                    const char* p99_name, Report& r) {
  const Percentile p99 = tail_p99(lat_us);
  if (p50_name != nullptr) r.set(p50_name, median(lat_us), "us");
  r.set(p99_name, p99.value, "us");
  r.note("%s: median of %zu window p99s (q=%.4f) over %zu samples", p99_name,
         p99.n, p99.q, lat_us.size());
}

// ---- In-process codec pair ---------------------------------------------

struct Codec {
  std::unique_ptr<core::Encoder> enc;
  std::unique_ptr<core::Decoder> dec;
  packet::Packet pkt;  // reused per packet: payload capacity persists
};

std::unique_ptr<Codec> make_codec(const core::GatewayConfig& cfg) {
  auto c = std::make_unique<Codec>();
  c->enc = core::make_encoder(cfg);
  c->dec = core::make_decoder(cfg);
  return c;
}

struct PassOut {
  std::int64_t ns = 0;
  std::int64_t encode_ns = 0;  // traced passes only
  std::uint64_t wire = 0;
  std::uint64_t failed = 0;
};

/// One pass of `s` through `c`.  `lat` (optional) gets each packet's
/// encode+decode wall time in microseconds; `traced` adds a span
/// boundary between the two calls (the traced run's extra clock read).
PassOut codec_pass(Codec& c, const Stream& s, Samples* lat, bool traced,
                   std::uint64_t& uid) {
  PassOut out;
  packet::Packet& pkt = c.pkt;
  const std::int64_t start = now_ns();
  for (const Offered& o : s.pkts) {
    pkt.ip = packet::Ipv4Header{};
    pkt.ip.src = o.src;
    pkt.ip.dst = o.dst;
    pkt.ip.protocol = static_cast<std::uint8_t>(o.tcp ? packet::IpProto::kTcp
                                                      : packet::IpProto::kUdp);
    pkt.ip.total_length =
        static_cast<std::uint16_t>(packet::Ipv4Header::kSize + o.bytes.size());
    pkt.payload = o.bytes;
    pkt.uid = ++uid;
    const std::int64_t t0 = now_ns();
    const core::EncodeInfo ei = c.enc->process(pkt);
    if (traced) out.encode_ns += now_ns() - t0;
    out.wire += pkt.payload.size();
    for (const Bytes& rp : ei.repairs) out.wire += rp.size();
    const core::DecodeInfo di = c.dec->process(pkt);
    const std::int64_t t1 = now_ns();
    if (lat != nullptr) lat->push(static_cast<double>(t1 - t0) / 1e3);
    if (core::is_drop(di.status) || !same_bytes(pkt.payload, o, 0)) {
      ++out.failed;
    }
  }
  out.ns = now_ns() - start;
  return out;
}

// ---- Sharded gateways ----------------------------------------------------

/// ShardedEncoderGateway -> ShardedDecoderGateway with the decoder twin
/// chained on each encoder worker (bench_mt_throughput's wiring).  The
/// worker sink verifies every delivered packet and records its latency
/// from submit.
class ShardedRig {
 public:
  ShardedRig(const Stream& s, const core::GatewayConfig& cfg,
             std::size_t lat_cap)
      : s_(s), enc_(cfg), dec_(decoder_cfg(cfg)), submit_ts_(s.pkts.size()) {
    sinks_.reserve(cfg.shards);
    for (std::size_t i = 0; i < cfg.shards; ++i) {
      sinks_.push_back(std::make_unique<ShardSink>(lat_cap / cfg.shards));
    }
    dec_.set_worker_sink([this](std::size_t i, packet::PacketPtr p) {
      on_delivered(*sinks_[i], *p);
    });
    enc_.set_worker_sink([this](std::size_t i, packet::PacketPtr p) {
      dec_.submit_to_shard(i, std::move(p));
    });
  }
  ShardedRig(const ShardedRig&) = delete;
  ShardedRig& operator=(const ShardedRig&) = delete;

  struct Pass {
    std::int64_t ns = 0;
    std::uint64_t wire = 0;  // payload bytes plus whole repair packets
    std::uint64_t failed = 0;
  };

  /// Replays the stream once (pass p shifts every sequence number by
  /// p * kPassShift) and waits until every shard is idle.
  Pass pass(std::uint64_t p, bool record, Samples* submit_ns) {
    recording_ = record;
    for (auto& sk : sinks_) sk->delivered = sk->failed = 0;
    const std::uint64_t wire0 = enc_.stats().wire_bytes_out;
    const std::size_t n = s_.pkts.size();
    const auto shift = static_cast<std::uint32_t>(p * kPassShift);
    Pass out;
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      auto pkt = to_packet(s_.pkts[i], shift, p * n + i + 1);
      const std::int64_t ts = now_ns();
      submit_ts_[i] = ts;
      enc_.submit(std::move(pkt));
      if (submit_ns != nullptr) submit_ns->push(static_cast<double>(now_ns() - ts));
    }
    enc_.drain_until_idle();
    out.ns = now_ns() - start;
    std::uint64_t delivered = 0;
    for (const auto& sk : sinks_) {
      delivered += sk->delivered;
      out.failed += sk->failed;
    }
    out.failed += n - std::min<std::uint64_t>(n, delivered);
    out.wire = enc_.stats().wire_bytes_out - wire0 - n * packet::Ipv4Header::kSize;
    return out;
  }

  [[nodiscard]] std::vector<double> latencies_us() const {
    std::vector<double> all;
    for (const auto& sk : sinks_) {
      const auto v = sk->lat.values();
      all.insert(all.end(), v.begin(), v.end());
    }
    return all;
  }
  /// max/mean packets per shard over the whole run.
  [[nodiscard]] double imbalance() const {
    double mx = 0;
    double sum = 0;
    for (std::size_t i = 0; i < enc_.shard_count(); ++i) {
      const double v = static_cast<double>(enc_.shard(i).stats().packets);
      mx = std::max(mx, v);
      sum += v;
    }
    return ratio(mx, sum / static_cast<double>(enc_.shard_count()));
  }
  /// Ring-stall nanoseconds (the gateway's own histogram) per packet.
  [[nodiscard]] double stall_ns_per_pkt() const {
    const bytecache::obs::Snapshot snap = enc_.snapshot();
    const auto* h = snap.histogram("gateway.encoder.ring_stall_ns");
    const double pkts = static_cast<double>(enc_.stats().packets);
    return h == nullptr ? 0 : ratio(static_cast<double>(h->sum), pkts);
  }
  void audit() const {
    enc_.audit();
    dec_.audit();
  }

 private:
  struct alignas(64) ShardSink {
    explicit ShardSink(std::size_t cap) : lat(cap) {}
    Samples lat;
    std::uint64_t delivered = 0;
    std::uint64_t failed = 0;
  };

  static core::GatewayConfig decoder_cfg(core::GatewayConfig cfg) {
    cfg.threaded = false;  // decodes inline on the encoder shard's worker
    return cfg;
  }

  void on_delivered(ShardSink& sk, const packet::Packet& p) {
    const std::int64_t now = now_ns();
    const std::size_t n = s_.pkts.size();
    const std::uint64_t id = p.uid - 1;
    const std::size_t i = id % n;
    const auto shift = static_cast<std::uint32_t>((id / n) * kPassShift);
    const Offered& o = s_.pkts[i];
    const bool ok = p.ip.src == o.src && p.ip.dst == o.dst &&
                    p.proto() == (o.tcp ? packet::IpProto::kTcp
                                        : packet::IpProto::kUdp) &&
                    same_bytes(p.payload, o, shift);
    ++sk.delivered;
    if (!ok) ++sk.failed;
    if (recording_) sk.lat.push(static_cast<double>(now - submit_ts_[i]) / 1e3);
  }

  const Stream& s_;
  gateway::ShardedEncoderGateway enc_;
  gateway::ShardedDecoderGateway dec_;
  std::vector<std::int64_t> submit_ts_;  // driver writes before submit
  std::vector<std::unique_ptr<ShardSink>> sinks_;
  bool recording_ = false;  // flipped only while the shards are idle
};

struct ShardedSeries {
  std::vector<double> goodput;  // MB/s per pass
  std::vector<double> kpps;
  std::vector<double> traced_goodput;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double wire_ratio = 0;
};

/// Timed passes until `seconds` have elapsed.  With `traced`, passes
/// alternate between untraced and traced (submit spans into
/// `submit_ns`), so the overhead ratio compares neighbours in time.
ShardedSeries sharded_passes(ShardedRig& rig, const Stream& s, double seconds,
                             bool traced, Samples* submit_ns,
                             std::uint64_t& pass_no) {
  ShardedSeries out;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t k = 0; now_ns() < deadline || out.goodput.size() < 4; ++k) {
    const bool traced_pass = traced && k % 2 == 1;
    const auto p = rig.pass(++pass_no, true, traced_pass ? submit_ns : nullptr);
    const double g = mb_per_s(static_cast<double>(s.offered_bytes),
                              static_cast<double>(p.ns));
    if (traced_pass) {
      out.traced_goodput.push_back(g);
    } else {
      out.goodput.push_back(g);
      out.kpps.push_back(ratio(static_cast<double>(s.pkts.size()) * 1e6,
                               static_cast<double>(p.ns)));
    }
    out.attempted += s.pkts.size();
    out.failed += p.failed;
    out.wire_ratio = ratio(static_cast<double>(p.wire),
                           static_cast<double>(s.offered_bytes));
  }
  return out;
}

void report_gateway_layer(ShardedRig& rig, const Samples& submit_ns,
                          Report& r) {
  const auto sub = submit_ns.values();
  std::vector<double> transit = rig.latencies_us();
  for (double& v : transit) v *= 1e3;
  r.set("gateway.submit_ns_p50", percentile(sub, 0.5).value, "ns");
  r.set("gateway.submit_ns_p99", percentile(sub, 0.99).value, "ns");
  r.set("gateway.transit_ns_p50", percentile(transit, 0.5).value, "ns");
  r.set("gateway.transit_ns_p99", percentile(transit, 0.99).value, "ns");
  r.set("gateway.shard_imbalance", rig.imbalance(), "ratio");
  r.set("gateway.ring_stall_ns", rig.stall_ns_per_pkt(), "ns/pkt");
}

/// The gateway layer measured on another workload's stream: a short
/// traced replay through the sharded gateways built from `cfg`.
void gateway_aux(const Stream& s, core::GatewayConfig cfg, double seconds,
                 Report& r) {
  // Rings smaller than any stream's pass, so the submit path meets
  // backpressure (and the ring-stall span records) on every workload.
  cfg.ring_capacity = 256;
  ShardedRig rig(s, cfg, sample_cap(seconds));
  std::uint64_t pass_no = 0;
  (void)rig.pass(pass_no, false, nullptr);  // warm-up
  Samples submit(sample_cap(seconds));
  const ShardedSeries series =
      sharded_passes(rig, s, seconds, true, &submit, pass_no);
  if (series.failed != 0) {
    r.fail("gateway replay: %llu packets not delivered byte-identical",
           static_cast<unsigned long long>(series.failed));
  }
  report_gateway_layer(rig, submit, r);
}

// ---- Loopback tunnel -----------------------------------------------------

/// One bytecache_gateway child process.  Started with --stats-exit, so
/// stop() collects its final telemetry snapshot (JSONL) from stdout.
/// `cpu` >= 0 pins it to that CPU.
class Gateway {
 public:
  Gateway(const std::string& exe, const std::vector<std::string>& args,
          int cpu) {
    int out[2];
    int err[2];
    if (pipe2(out, O_CLOEXEC) != 0 || pipe2(err, O_CLOEXEC) != 0) {
      throw std::runtime_error("pipe: " + std::string(std::strerror(errno)));
    }
    std::vector<std::string> argv_s{exe};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // The gateway must not outlive the benchmark, however it ends.
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(127);
      if (cpu >= 0) {
        cpu_set_t set;
        CPU_ZERO(&set);
        CPU_SET(cpu, &set);
        sched_setaffinity(0, sizeof set, &set);
      }
      dup2(out[1], STDOUT_FILENO);
      dup2(err[1], STDERR_FILENO);
      execv(argv[0], argv.data());
      _exit(127);
    }
    close(out[1]);
    close(err[1]);
    out_fd_ = out[0];
    err_fd_ = err[0];
    wait_ready();
  }
  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;
  ~Gateway() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
    if (out_fd_ >= 0) close(out_fd_);
    if (err_fd_ >= 0) close(err_fd_);
  }

  [[nodiscard]] int pid() const { return pid_; }

  /// SIGTERM, then the snapshot the gateway prints on its way out.
  std::string stop() {
    std::string jsonl;
    if (pid_ <= 0) return jsonl;
    kill(pid_, SIGTERM);
    char buf[4096];
    for (;;) {
      pollfd pfd{out_fd_, POLLIN, 0};
      if (poll(&pfd, 1, 10'000) <= 0) break;
      const ssize_t n = read(out_fd_, buf, sizeof buf);
      if (n <= 0) break;
      jsonl.append(buf, static_cast<std::size_t>(n));
    }
    waitpid(pid_, nullptr, 0);
    pid_ = -1;
    return jsonl;
  }

 private:
  void wait_ready() {
    // The gateway announces itself on stderr once its sockets are bound.
    std::string err;
    char buf[512];
    const std::int64_t deadline = now_ns() + 10'000'000'000;
    while (err.find("bytecache_gateway: role=") == std::string::npos) {
      pollfd pfd{err_fd_, POLLIN, 0};
      const int left = static_cast<int>((deadline - now_ns()) / 1'000'000);
      if (left <= 0 || poll(&pfd, 1, left) <= 0) {
        throw std::runtime_error("bytecache_gateway did not start: " + err);
      }
      const ssize_t n = read(err_fd_, buf, sizeof buf);
      if (n <= 0) throw std::runtime_error("bytecache_gateway exited: " + err);
      err.append(buf, static_cast<std::size_t>(n));
    }
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  int err_fd_ = -1;
};

/// A child process that spins at SCHED_IDLE priority on one CPU, so the
/// CPU never enters its idle state: a gateway woken there preempts it at
/// once, instead of paying the virtual CPU's wake-up from halt (tens of
/// microseconds that vary with the host's load, not with the program).
class Spinner {
 public:
  explicit Spinner(int cpu) {
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (getppid() != parent) _exit(127);
      cpu_set_t set;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
      sched_setaffinity(0, sizeof set, &set);
      sched_param none{};
      sched_setscheduler(0, SCHED_IDLE, &none);
      for (;;) {
      }
    }
  }
  Spinner(const Spinner&) = delete;
  Spinner& operator=(const Spinner&) = delete;
  ~Spinner() {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }

 private:
  pid_t pid_ = -1;
};

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_port = htons(port);
  a.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return a;
}

/// A non-blocking UDP socket bound to an ephemeral loopback port.
int bound_socket(std::uint16_t& port, int rcvbuf = 0) {
  const int fd = socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  if (rcvbuf > 0) setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof rcvbuf);
  sockaddr_in a = loopback(0);
  if (bind(fd, reinterpret_cast<sockaddr*>(&a), sizeof a) != 0) {
    close(fd);
    throw std::runtime_error("bind failed");
  }
  socklen_t len = sizeof a;
  getsockname(fd, reinterpret_cast<sockaddr*>(&a), &len);
  port = ntohs(a.sin_port);
  return fd;
}

std::uint16_t free_port() {
  std::uint16_t port = 0;
  close(bound_socket(port));
  return port;
}

/// CPU seconds (user + system) a process has used so far.
double cpu_seconds(int pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  std::getline(f, line);
  const auto close_paren = line.rfind(')');
  if (close_paren == std::string::npos) return 0;
  std::istringstream in(line.substr(close_paren + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  for (int i = 3; i <= 15 && in >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Two gateway processes (encode, decode) plus this process's plain
/// sources and sink, all on 127.0.0.1.  With three CPUs or more, the
/// generator and the two gateways each get a CPU of their own: the
/// generator spins, and a gateway woken onto its CPU would otherwise
/// wait out a scheduler slice (milliseconds of false tail latency).
class TunnelRig {
 public:
  TunnelRig(const std::string& bin_dir, const core::GatewayConfig& cfg) {
    sched_getaffinity(0, sizeof saved_affinity_, &saved_affinity_);
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_affinity_)) cpus.push_back(c);
    }
    const bool pin = cpus.size() >= 3;
    if (pin) {
      cpu_set_t self;
      CPU_ZERO(&self);
      CPU_SET(cpus[0], &self);
      sched_setaffinity(0, sizeof self, &self);
    }
    std::uint16_t sink_port = 0;
    sink_ = bound_socket(sink_port, 4 << 20);
    for (int& fd : sources_) {
      std::uint16_t p = 0;
      fd = bound_socket(p);
    }
    const std::uint16_t ingress = free_port();
    const std::uint16_t t_enc = free_port();
    const std::uint16_t t_dec = free_port();
    ingress_ = loopback(ingress);
    auto addr = [](std::uint16_t p) { return "127.0.0.1:" + std::to_string(p); };
    const std::string exe = bin_dir + "/bytecache_gateway";
    const std::vector<std::string> common{
        "--policy=" + std::string(core::to_string(cfg.policy)),
        "--cache-bytes=" + std::to_string(cfg.cache.l1_bytes), "--stats-exit"};
    std::vector<std::string> dec_args{"--role=decode", "--tunnel=" + addr(t_dec),
                                      "--egress=" + addr(sink_port)};
    std::vector<std::string> enc_args{"--role=encode", "--ingress=" + addr(ingress),
                                      "--tunnel=" + addr(t_enc),
                                      "--peer=" + addr(t_dec)};
    dec_args.insert(dec_args.end(), common.begin(), common.end());
    enc_args.insert(enc_args.end(), common.begin(), common.end());
    dec_ = std::make_unique<Gateway>(exe, dec_args, pin ? cpus[2] : -1);
    enc_ = std::make_unique<Gateway>(exe, enc_args, pin ? cpus[1] : -1);
    if (pin) {
      for (int i : {1, 2}) spinners_.push_back(std::make_unique<Spinner>(cpus[i]));
    }
  }
  TunnelRig(const TunnelRig&) = delete;
  TunnelRig& operator=(const TunnelRig&) = delete;
  ~TunnelRig() {
    spinners_.clear();
    enc_.reset();
    dec_.reset();
    for (int fd : sources_) close(fd);
    close(sink_);
    sched_setaffinity(0, sizeof saved_affinity_, &saved_affinity_);
  }

  struct Phase {
    std::uint64_t sent = 0;
    std::uint64_t received = 0;
    std::uint64_t corrupt = 0;
    std::uint64_t bytes = 0;  // delivered plain bytes
    std::vector<double> lat_us;   // arrival - due
    std::vector<double> late_us;  // send - due
    std::vector<double> send_ns;  // sendto duration (traced)
    double span_ns = 0;           // first due .. last arrival
    double enc_cpu_share = 0;
    double dec_cpu_share = 0;
    [[nodiscard]] std::uint64_t lost() const { return sent - received - corrupt; }
  };

  /// Sends `rate_pps * seconds` datagrams on a fixed schedule, cycling
  /// through the stream, and collects them at the sink.
  Phase run(const Stream& s, double rate_pps, double seconds, bool traced) {
    Phase ph;
    const auto count = static_cast<std::uint64_t>(std::llround(rate_pps * seconds));
    const std::uint64_t first = next_seq_;
    next_seq_ += count;
    const double period = 1e9 / rate_pps;
    std::vector<std::uint8_t> seen(count, 0);
    ph.lat_us.reserve(count);
    ph.late_us.reserve(count);
    if (traced) ph.send_ns.reserve(count);
    Bytes out(65536);
    Bytes in(65536);
    const double cpu_e0 = cpu_seconds(enc_->pid());
    const double cpu_d0 = cpu_seconds(dec_->pid());
    const std::int64_t t0 = now_ns() + 1'000'000;
    std::int64_t last_event = t0;
    std::int64_t last_arrival = t0;
    std::uint64_t k = 0;
    for (;;) {
      const std::int64_t now = now_ns();
      if (k < count) {
        const std::int64_t due = t0 + static_cast<std::int64_t>(period * k);
        if (now >= due) {
          const std::uint64_t seq = first + k;
          const Offered& o = s.pkts[seq % s.pkts.size()];
          const BytesView d = o.datagram();
          std::memcpy(out.data(), d.data(), d.size());
          std::memcpy(out.data(), &seq, sizeof seq);
          const sockaddr_in& to = ingress_;
          const int fd = sources_[source_of(o)];
          const std::int64_t a = now_ns();
          const ssize_t n = sendto(fd, out.data(), d.size(), 0,
                                   reinterpret_cast<const sockaddr*>(&to), sizeof to);
          if (traced) ph.send_ns.push_back(static_cast<double>(now_ns() - a));
          ph.late_us.push_back(static_cast<double>(a - due) / 1e3);
          (void)n;  // a refused send shows up as a lost datagram
          ++ph.sent;
          ++k;
          last_event = a;
        }
      }
      for (;;) {
        const ssize_t n = recv(sink_, in.data(), in.size(), 0);
        if (n < 0) break;
        const std::int64_t at = now_ns();
        last_event = at;
        std::uint64_t seq = 0;
        if (n < static_cast<ssize_t>(sizeof seq)) continue;
        std::memcpy(&seq, in.data(), sizeof seq);
        if (seq < first || seq >= first + count || seen[seq - first] != 0) {
          continue;  // a straggler of an earlier phase, or a duplicate
        }
        seen[seq - first] = 1;
        const BytesView d = s.pkts[seq % s.pkts.size()].datagram();
        const bool ok = static_cast<std::size_t>(n) == d.size() &&
                        std::memcmp(in.data() + sizeof seq, d.data() + sizeof seq,
                                    d.size() - sizeof seq) == 0;
        if (!ok) {
          ++ph.corrupt;
          continue;
        }
        ++ph.received;
        ph.bytes += d.size();
        const std::int64_t due =
            t0 + static_cast<std::int64_t>(period * (seq - first));
        ph.lat_us.push_back(static_cast<double>(at - due) / 1e3);
        last_arrival = at;
      }
      if (k == count) {
        if (ph.received + ph.corrupt == count) break;
        if (now - last_event > 100'000'000) break;  // the rest is lost
      }
    }
    const double wall = static_cast<double>(now_ns() - t0);
    ph.span_ns = static_cast<double>(last_arrival - t0);
    ph.enc_cpu_share = ratio((cpu_seconds(enc_->pid()) - cpu_e0) * 1e9, wall);
    ph.dec_cpu_share = ratio((cpu_seconds(dec_->pid()) - cpu_d0) * 1e9, wall);
    return ph;
  }

  [[nodiscard]] long hwm_kb() const {
    return proc_status_kb(enc_->pid(), "VmHWM") +
           proc_status_kb(dec_->pid(), "VmHWM");
  }

  struct Snapshots {
    std::string enc;
    std::string dec;
  };
  Snapshots stop() {
    Snapshots out;
    out.enc = enc_->stop();
    out.dec = dec_->stop();
    return out;
  }

 private:
  static std::size_t source_of(const Offered& o) {
    return o.tcp ? (o.src * 2654435761u >> 16) % kSources
                 : ((o.src & 0xFF) + kSources - 1) % kSources;
  }

  std::unique_ptr<Gateway> dec_;
  std::unique_ptr<Gateway> enc_;
  std::vector<std::unique_ptr<Spinner>> spinners_;
  std::array<int, kSources> sources_{};
  int sink_ = -1;
  sockaddr_in ingress_{};
  std::uint64_t next_seq_ = 0;
  cpu_set_t saved_affinity_{};
};

/// A counter of a gateway's JSONL snapshot (0 when absent).
double jsonl_counter(const std::string& jsonl, const std::string& name) {
  const std::string key = "{\"name\":\"" + name + "\",";
  const auto at = jsonl.find(key);
  if (at == std::string::npos) return 0;
  const auto v = jsonl.find("\"value\":", at);
  return v == std::string::npos ? 0 : std::strtod(jsonl.c_str() + v + 8, nullptr);
}

/// Median of a gateway's log2-bucketed histogram, interpolated linearly
/// by rank inside the bucket that holds it (0 when absent).
double jsonl_hist_p50(const std::string& jsonl, const std::string& name) {
  const std::string key = "{\"name\":\"" + name + "\",";
  const auto at = jsonl.find(key);
  if (at == std::string::npos) return 0;
  const auto eol = jsonl.find('\n', at);
  const auto b = jsonl.find("\"buckets\":[", at);
  if (b == std::string::npos || b > eol) return 0;
  std::vector<std::pair<double, double>> buckets;  // (upper bound, count)
  const char* p = jsonl.c_str() + b + 11;
  double total = 0;
  while (*p == '[' || *p == ',') {
    if (*p == ',') ++p;
    if (*p != '[') break;
    char* end = nullptr;
    const double ub = std::strtod(p + 1, &end);
    const double cnt = std::strtod(end + 1, &end);
    buckets.emplace_back(ub, cnt);
    total += cnt;
    p = end + 1;  // past ']'
  }
  double below = 0;
  for (const auto& [ub, cnt] : buckets) {
    if (below + cnt >= total / 2) {
      const double lo = (ub + 1) / 2;  // bucket i spans [2^(i-1), 2^i - 1]
      return lo + (ub - lo) * ratio(total / 2 - below, cnt);
    }
    below += cnt;
  }
  return 0;
}

struct TunnelOut {
  TunnelRig::Phase low;
  TunnelRig::Phase high;
  TunnelRig::Phase high_traced;
  double max_rate_pps = 0;
  TunnelRig::Snapshots snaps;
  long hwm_kb = 0;
};

bool trial_ok(const TunnelRig::Phase& ph) {
  if (ph.lost() != 0 || ph.corrupt != 0 || ph.lat_us.size() < 1000) return false;
  if (tail_p99(ph.lat_us).value > kLatencyLimitUs) return false;
  // A growing backlog shows as the last quarter waiting far longer than
  // the first.
  const std::size_t q = ph.lat_us.size() / 4;
  const double head = median({ph.lat_us.begin(), ph.lat_us.begin() + q});
  const double tail = median({ph.lat_us.end() - q, ph.lat_us.end()});
  return tail <= 2 * head + 100;
}

/// Highest rate with zero loss, p99 within kLatencyLimitUs and no growing
/// backlog: a geometric climb from the high rate, then bisection between
/// the highest passing and the lowest failing rate, for `seconds`.
///
/// Every trial runs on a fresh, warmed-up tunnel: a datagram the decoder
/// gateway's socket drops above capacity desynchronizes the two caches,
/// and later trials on the same tunnel would fail for that.  A failing
/// rate is tried twice, because a single host-level stall also fails a
/// trial far below capacity.
double search_max_rate(const std::string& bin_dir, const Stream& s,
                       double seconds) {
  constexpr double kTrialS = 0.25;
  double pass = 0;
  double fail = 0;
  double rate = kHighRatePps;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  while (now_ns() < deadline) {
    bool ok = false;
    for (int attempt = 0; attempt < 2 && !ok; ++attempt) {
      TunnelRig rig(bin_dir, tunnel_config());
      (void)rig.run(s, kHighRatePps, 0.1, false);  // warm the caches
      ok = trial_ok(rig.run(s, rate, kTrialS, false));
    }
    if (ok) pass = std::max(pass, rate);
    else fail = fail == 0 ? rate : std::min(fail, rate);
    if (fail == 0) rate *= 1.5;
    else if (pass == 0) rate /= 2;
    else rate = (pass + fail) / 2;
  }
  return pass;
}

}  // namespace

long proc_status_kb(int pid, const char* field) {
  std::ifstream f(pid == 0 ? std::string("/proc/self/status")
                           : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(f, line)) {
    if (line.rfind(key, 0) == 0) return std::stol(line.substr(key.size()));
  }
  return 0;
}

namespace {

/// Reports the net layer from `main_run`'s traced high-rate phase, or,
/// when null, from a traced high-rate replay of `s` through a fresh
/// loopback tunnel lasting `seconds / 2`.
void net_layer(const RunOptions& opt, const Stream& s, double seconds,
               TunnelOut* main_run, Report& r) {
  TunnelOut local;
  TunnelOut& t = main_run != nullptr ? *main_run : local;
  if (main_run == nullptr) {
    TunnelRig rig(opt.bin_dir, tunnel_config());
    (void)rig.run(s, kLowRatePps, 0.05, false);
    t.high = rig.run(s, kHighRatePps, seconds / 2, true);
    t.high_traced = t.high;
    t.snaps = rig.stop();
  }
  const TunnelRig::Phase& hi = t.high_traced;
  r.set("net.send_ns_p50", percentile(hi.send_ns, 0.5).value, "ns");
  r.set("net.gen_late_us_p99", percentile(hi.late_us, 0.99).value, "us");
  r.set("net.loss_ratio_hi",
        ratio(static_cast<double>(hi.lost() + hi.corrupt),
              static_cast<double>(hi.sent)),
        "ratio");
  r.set("net.encoder_cpu_share", hi.enc_cpu_share, "ratio");
  r.set("net.decoder_cpu_share", hi.dec_cpu_share, "ratio");
  r.set("net.tunnel_dgrams_per_plain",
        ratio(jsonl_counter(t.snaps.enc, "net.tunnel.datagrams_out"),
              jsonl_counter(t.snaps.enc, "net.plain.plain_in")),
        "ratio");
  r.set("net.gw_encode_ns_p50",
        jsonl_hist_p50(t.snaps.enc, "gateway.encoder.encode_ns"), "ns");
  r.set("net.gw_decode_ns_p50",
        jsonl_hist_p50(t.snaps.dec, "gateway.decoder.decode_ns"), "ns");
}

/// Runs `make` (one complete set-up) kSetupReps times; the median seconds.
template <typename Make>
double median_setup(Make&& make) {
  std::vector<double> setups;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    make();
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return median(setups);
}

}  // namespace

// ---- hot_replay ------------------------------------------------------------

void run_hot_replay(const RunOptions& opt, Report& r) {
  const core::GatewayConfig cfg = hot_replay_config();
  Stream s;
  std::unique_ptr<Codec> twin[2];
  std::uint64_t uid = 0;
  std::int64_t pass_ns = 0;
  const double setup_s = median_setup([&] {
    twin[0].reset();
    twin[1].reset();
    s = make_hot_replay(opt.seed);
    // Warm-up fills the bounded cache to its budget before timing.
    const std::size_t warm_passes = 2 + cfg.cache.l1_bytes / s.offered_bytes;
    for (auto& t : twin) {
      t = make_codec(cfg);
      for (std::size_t p = 0; p < warm_passes; ++p) {
        const PassOut w = codec_pass(*t, s, nullptr, false, uid);
        if (w.failed != 0) r.fail("hot_replay warm-up: %llu bad packets",
                                  static_cast<unsigned long long>(w.failed));
        pass_ns = w.ns;
      }
    }
  });

  Samples lat(sample_cap(opt.seconds));
  const double measure_s = opt.trace ? opt.seconds * 0.4 : opt.seconds;
  const auto per_block = static_cast<std::size_t>(
      std::max(1.0, std::ceil(kBlockS * 1e9 / static_cast<double>(pass_ns))));
  const long rss_start = proc_status_kb(0, "VmRSS");

  // Blocks alternate between the twins; in a traced run every other
  // pair of blocks carries the extra span boundary.
  std::vector<double> goodput;
  std::vector<double> kpps;
  std::vector<double> by_twin[2];
  std::vector<double> traced_goodput;
  std::int64_t traced_encode_ns = 0;
  std::int64_t traced_ns = 0;
  double wire_ratio = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(measure_s * 1e9);
  for (std::size_t k = 0; now_ns() < deadline || goodput.size() < 8; ++k) {
    const std::size_t which = k % 2;
    const bool traced = opt.trace && (k / 2) % 2 == 1;
    std::int64_t ns = 0;
    for (std::size_t p = 0; p < per_block; ++p) {
      const PassOut o = codec_pass(*twin[which], s, traced ? nullptr : &lat, traced, uid);
      ns += o.ns;
      traced_encode_ns += o.encode_ns;
      failed += o.failed;
      attempted += s.pkts.size();
      wire_ratio = ratio(static_cast<double>(o.wire),
                         static_cast<double>(s.offered_bytes));
    }
    const double bytes = static_cast<double>(s.offered_bytes * per_block);
    const double g = mb_per_s(bytes, static_cast<double>(ns));
    if (traced) {
      traced_goodput.push_back(g);
      traced_ns += ns;
      continue;
    }
    goodput.push_back(g);
    by_twin[which].push_back(g);
    kpps.push_back(ratio(static_cast<double>(s.pkts.size() * per_block) * 1e6,
                         static_cast<double>(ns)));
  }
  const long rss_end = proc_status_kb(0, "VmRSS");
  r.count(attempted, failed);
  if (failed != 0) {
    r.fail("hot_replay: %llu packets dropped or not byte-identical",
           static_cast<unsigned long long>(failed));
  }
  check_stationary(goodput, "goodput", r);
  check_rss(rss_start, rss_end, r);
  const double twin_skew = skew(median(by_twin[0]), median(by_twin[1]));
  r.note("order independence: twin codecs %.2f vs %.2f MB/s (skew %.3f)",
         median(by_twin[0]), median(by_twin[1]), twin_skew);
  if (twin_skew > kMaxTwinSkew) {
    r.fail("order independence: identical twins differ by %.1f%%",
           100 * twin_skew);
  }

  if (!opt.trace) {
    const auto lat_v = lat.values();
    r.set("goodput_mbps", median(goodput), "MB/s");
    report_latency(lat_v, "pkt_latency_p50_us", "pkt_latency_p99_us", r);
    // A closed loop has one operating point, its full rate: the high-rate
    // p99 is the p99.
    report_latency(lat_v, nullptr, "pkt_latency_p99_us_hi", r);
    r.set("max_rate_kpps", median(kpps), "kpps");
    r.set("wire_ratio", wire_ratio, "ratio");
    r.set("peak_rss_mb", static_cast<double>(proc_status_kb(0, "VmHWM")) / 1024, "MB");
    r.set("setup_s", setup_s, "s");
    r.note("error_rate %.6f (%llu failed of %llu packets)",
           ratio(static_cast<double>(failed), static_cast<double>(attempted)),
           static_cast<unsigned long long>(failed),
           static_cast<unsigned long long>(attempted));
    return;
  }
  r.set("obs.trace_overhead_ratio", ratio(median(traced_goodput), median(goodput)),
        "ratio");
  r.note("traced blocks: Encoder::process took %.1f%% of the pass time",
         100 * ratio(static_cast<double>(traced_encode_ns),
                     static_cast<double>(traced_ns)));
  twin[0].reset();
  twin[1].reset();
  run_ledger(s, cfg, opt.seconds * 0.3, r);
  gateway_aux(s, cfg, opt.seconds * 0.1, r);
  net_layer(opt, s, opt.seconds * 0.2, nullptr, r);
}

// ---- churn_mix -------------------------------------------------------------

void run_churn_mix(const RunOptions& opt, Report& r) {
  const core::GatewayConfig cfg = churn_mix_config();
  Stream s;
  std::unique_ptr<ShardedRig> rig;
  const std::size_t cap = sample_cap(opt.seconds);
  std::uint64_t pass_no = 0;
  const double setup_s = median_setup([&] {
    rig.reset();
    s = make_churn_mix(opt.seed);
    rig = std::make_unique<ShardedRig>(s, cfg, cap);
    pass_no = 0;
    const auto w = rig->pass(pass_no, false, nullptr);  // warm-up
    if (w.failed != 0) r.fail("churn_mix warm-up: %llu bad packets",
                              static_cast<unsigned long long>(w.failed));
  });
  r.note("churn_mix: %zu packets, %.1f MB offered per pass, %zu shards",
         s.pkts.size(), static_cast<double>(s.offered_bytes) / 1e6, cfg.shards);

  Samples submit(opt.trace ? cap : 0);
  const long rss_start = proc_status_kb(0, "VmRSS");
  const double measure_s = opt.trace ? opt.seconds * 0.4 : opt.seconds;
  const ShardedSeries series =
      sharded_passes(*rig, s, measure_s, opt.trace, &submit, pass_no);
  const long rss_end = proc_status_kb(0, "VmRSS");
  rig->audit();
  r.count(series.attempted, series.failed);
  if (series.failed != 0) {
    r.fail("churn_mix: %llu packets dropped or not byte-identical",
           static_cast<unsigned long long>(series.failed));
  }
  check_stationary(series.goodput, "goodput", r);
  check_rss(rss_start, rss_end, r);

  if (!opt.trace) {
    const auto lat_v = rig->latencies_us();
    r.set("goodput_mbps", median(series.goodput), "MB/s");
    report_latency(lat_v, "pkt_latency_p50_us", "pkt_latency_p99_us", r);
    report_latency(lat_v, nullptr, "pkt_latency_p99_us_hi", r);
    r.set("max_rate_kpps", median(series.kpps), "kpps");
    r.set("wire_ratio", series.wire_ratio, "ratio");
    r.set("peak_rss_mb", static_cast<double>(proc_status_kb(0, "VmHWM")) / 1024, "MB");
    r.set("setup_s", setup_s, "s");
    r.note("error_rate %.6f (%llu failed of %llu packets)",
           ratio(static_cast<double>(series.failed),
                 static_cast<double>(series.attempted)),
           static_cast<unsigned long long>(series.failed),
           static_cast<unsigned long long>(series.attempted));
    return;
  }
  r.set("obs.trace_overhead_ratio",
        ratio(median(series.traced_goodput), median(series.goodput)), "ratio");
  report_gateway_layer(*rig, submit, r);
  rig.reset();
  run_ledger(s, cfg, opt.seconds * 0.3, r);
  net_layer(opt, s, opt.seconds * 0.2, nullptr, r);
}

// ---- tunnel_open -----------------------------------------------------------

void run_tunnel_open(const RunOptions& opt, Report& r) {
  const core::GatewayConfig cfg = tunnel_config();
  Stream s;
  std::unique_ptr<TunnelRig> rig;
  const double setup_s = median_setup([&] {
    rig.reset();
    s = make_tunnel_mix(opt.seed);
    rig = std::make_unique<TunnelRig>(opt.bin_dir, cfg);
    const auto w = rig->run(s, kHighRatePps, 0.05, false);  // warm-up
    if (w.corrupt != 0) {
      r.fail("tunnel_open warm-up: %llu datagrams arrived with wrong bytes",
             static_cast<unsigned long long>(w.corrupt));
    }
  });

  const double seg = opt.seconds / 10;
  TunnelOut t;
  // The low rate gets the largest share: its tail is the noisiest.
  t.low = rig->run(s, kLowRatePps, (opt.trace ? 3 : 5) * seg, false);
  t.high = rig->run(s, kHighRatePps, 3 * seg, false);
  if (opt.trace) t.high_traced = rig->run(s, kHighRatePps, 2 * seg, true);
  t.hwm_kb = rig->hwm_kb();
  t.snaps = rig->stop();
  rig.reset();
  t.max_rate_pps = search_max_rate(opt.bin_dir, s, 2 * seg);

  const std::uint64_t attempted = t.low.sent + t.high.sent;
  const std::uint64_t failed =
      t.low.lost() + t.low.corrupt + t.high.lost() + t.high.corrupt;
  r.count(attempted, failed);
  if (t.low.corrupt + t.high.corrupt != 0) {
    r.fail("tunnel_open: %llu datagrams arrived with wrong bytes",
           static_cast<unsigned long long>(t.low.corrupt + t.high.corrupt));
  }
  if (t.max_rate_pps == 0) r.fail("tunnel_open: no rate met the latency limit");
  r.note("tunnel_open: max rate %.0f pps; CPU share at %.0f pps: encoder "
         "%.3f, decoder %.3f; generator late p99 %.1f us (low rate: %.1f us)",
         t.max_rate_pps, kHighRatePps, t.high.enc_cpu_share, t.high.dec_cpu_share,
         percentile(t.high.late_us, 0.99).value,
         percentile(t.low.late_us, 0.99).value);

  if (!opt.trace) {
    report_latency(t.low.lat_us, "pkt_latency_p50_us", "pkt_latency_p99_us", r);
    report_latency(t.high.lat_us, nullptr, "pkt_latency_p99_us_hi", r);
    r.set("goodput_mbps", mb_per_s(static_cast<double>(t.high.bytes), t.high.span_ns),
          "MB/s");
    r.set("max_rate_kpps", t.max_rate_pps / 1e3, "kpps");
    r.set("wire_ratio",
          ratio(jsonl_counter(t.snaps.enc, "net.tunnel.bytes_out"),
                jsonl_counter(t.snaps.enc, "net.plain.plain_bytes_in")),
          "ratio");
    r.set("peak_rss_mb", static_cast<double>(t.hwm_kb) / 1024, "MB");
    r.set("setup_s", setup_s, "s");
    r.note("error_rate %.6f (%llu failed of %llu datagrams)",
           ratio(static_cast<double>(failed), static_cast<double>(attempted)),
           static_cast<unsigned long long>(failed),
           static_cast<unsigned long long>(attempted));
    return;
  }
  r.set("obs.trace_overhead_ratio",
        ratio(static_cast<double>(t.high_traced.bytes) / t.high_traced.span_ns,
              static_cast<double>(t.high.bytes) / t.high.span_ns),
        "ratio");
  net_layer(opt, s, 0, &t, r);
  run_ledger(s, cfg, opt.seconds * 0.2, r);
  gateway_aux(s, cfg, opt.seconds * 0.1, r);
}

}  // namespace perfbench
