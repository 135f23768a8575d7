// bytecache_gateway — the DRE codec as a real middlebox process
// (DESIGN.md §12).  One process is one side of the tunnel:
//
//   encoder side (near the server):
//     $ bytecache_gateway --role=encode --ingress=127.0.0.1:9000
//           --tunnel=127.0.0.1:9001 --peer=127.0.0.1:9002
//           --control=127.0.0.1:9003 --policy=cache_flush
//   decoder side (client side of the constrained segment):
//     $ bytecache_gateway --role=decode --tunnel=127.0.0.1:9002
//           --egress=127.0.0.1:9100 --control=127.0.0.1:9004
//
// Plain UDP datagrams arriving on the encoder's --ingress socket are
// framed onto per-source virtual flows, DRE-encoded, and tunneled to
// the peer; the decoder reconstructs them and forwards the original
// bytes to --egress.  Reverse tunnel datagrams carry the decoder's
// control feedback (NACK / resync, core/control.h).
//
// The binary carries no simulator: the simulated wire behind the same
// transport seam is a test fixture (tests/sim_transport.h).
//
// Flags:
//   --role=encode|decode      which side
//   --ingress=a.b.c.d:port    plain-side bind (encode)
//   --egress=a.b.c.d:port     plain-side destination (decode)
//   --tunnel=a.b.c.d:port     tunnel socket bind
//   --peer=a.b.c.d:port       peer tunnel address (required for encode;
//                             decode learns it from the first datagram)
//   --control=a.b.c.d:port    runtime control channel (net/control.h)
//   --policy=<name>           encoding policy            (default cache_flush)
//   --cache-bytes=<n>         L1 cache budget, 0 = unbounded (default 0)
//   --l2-bytes=<n>            shared L2 tier budget, 0 = no L2 (default 0)
//   --host-pair-bytes=<n>     per-host-pair L2 budget, 0 = none (default 0)
//   --nack                    decoder NACK feedback
//   --epoch-resync            epoch-stamped resync (v2 wire format)
//   --stats-exit              dump the JSONL snapshot to stdout on exit
//
// SIGINT/SIGTERM stop the event loop; teardown is clean (RAII all the
// way down — the PR 1 use-after-free timers are why that is a feature).
#include <sys/epoll.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "core/factory.h"
#include "net/control.h"
#include "net/event_loop.h"
#include "net/gateway_tunnel.h"
#include "net/udp_socket.h"
#include "net/udp_transport.h"
#include "obs/export.h"

using namespace bytecache;

namespace {

struct Options {
  std::string role;  // "encode" | "decode"
  std::optional<net::SocketAddr> ingress;
  std::optional<net::SocketAddr> egress;
  std::optional<net::SocketAddr> tunnel;
  net::SocketAddr peer;  // invalid = learn from first datagram
  std::optional<net::SocketAddr> control;
  std::string policy = "cache_flush";
  std::size_t cache_bytes = 0;
  std::size_t l2_bytes = 0;
  std::size_t host_pair_bytes = 0;
  bool nack = false;
  bool epoch_resync = false;
  bool stats_exit = false;
};

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "bytecache_gateway: %s (see header comment)\n",
               msg.c_str());
  std::exit(2);
}

bool parse_flag(const char* arg, const char* name, std::string& out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    out = arg + len + 1;
    return true;
  }
  return false;
}

net::SocketAddr parse_addr(const std::string& text, const char* flag) {
  auto addr = net::SocketAddr::parse(text);
  if (!addr) die(std::string(flag) + ": malformed address '" + text + "'");
  return *addr;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (parse_flag(a, "--role", v)) opt.role = v;
    else if (parse_flag(a, "--ingress", v)) opt.ingress = parse_addr(v, a);
    else if (parse_flag(a, "--egress", v)) opt.egress = parse_addr(v, a);
    else if (parse_flag(a, "--tunnel", v)) opt.tunnel = parse_addr(v, a);
    else if (parse_flag(a, "--peer", v)) opt.peer = parse_addr(v, a);
    else if (parse_flag(a, "--control", v)) opt.control = parse_addr(v, a);
    else if (parse_flag(a, "--policy", v)) opt.policy = v;
    else if (parse_flag(a, "--cache-bytes", v))
      opt.cache_bytes = std::strtoull(v.c_str(), nullptr, 10);
    else if (parse_flag(a, "--l2-bytes", v))
      opt.l2_bytes = std::strtoull(v.c_str(), nullptr, 10);
    else if (parse_flag(a, "--host-pair-bytes", v))
      opt.host_pair_bytes = std::strtoull(v.c_str(), nullptr, 10);
    else if (std::strcmp(a, "--nack") == 0) opt.nack = true;
    else if (std::strcmp(a, "--epoch-resync") == 0) opt.epoch_resync = true;
    else if (std::strcmp(a, "--stats-exit") == 0) opt.stats_exit = true;
    else die(std::string("unknown argument '") + a + "'");
  }
  if (opt.role != "encode" && opt.role != "decode")
    die("--role=encode|decode is required");
  if (!opt.tunnel) die("--tunnel is required");
  if (opt.role == "encode" && !opt.peer.valid())
    die("--peer is required for the encoder side");
  if (opt.role == "encode" && !opt.ingress)
    die("--ingress is required for the encoder side");
  if (opt.role == "decode" && !opt.egress)
    die("--egress is required for the decoder side");
  return opt;
}

net::TunnelConfig tunnel_config(const Options& opt) {
  net::TunnelConfig tc;
  const auto kind = core::policy_from_string(opt.policy);
  if (!kind) die("unknown policy '" + opt.policy + "'");
  tc.gateway.policy = *kind;
  tc.gateway.cache.l1_bytes = opt.cache_bytes;
  tc.gateway.cache.l2_bytes = opt.l2_bytes;
  tc.gateway.cache.per_host_pair_bytes = opt.host_pair_bytes;
  tc.gateway.params.nack_feedback = opt.nack;
  tc.gateway.params.epoch_resync = opt.epoch_resync;
  return tc;
}

net::EventLoop* g_loop = nullptr;

void on_signal(int /*sig*/) {
  if (g_loop != nullptr) g_loop->stop();  // one eventfd write: signal-safe
}

/// Binds the plain-side ingress socket and feeds every datagram (keyed
/// by its source address) into the encoder tunnel.
void add_ingress(net::EventLoop& loop, net::UdpSocket& socket,
                 const net::SocketAddr& addr, net::EncoderTunnel& enc) {
  if (!socket.bind(addr))
    die("cannot bind --ingress " + addr.to_string() + ": " +
        std::strerror(errno));
  loop.add_fd(socket.fd(), EPOLLIN, [&socket, &enc](std::uint32_t) {
    socket.drain([&enc](util::BytesView data, const net::SocketAddr& from) {
      enc.on_plain_datagram(data, from.key());
    });
  });
}

int run(const Options& opt) {
  net::EventLoop loop;
  g_loop = &loop;
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  net::UdpTunnelTransport tunnel(loop, *opt.tunnel, opt.peer);
  const net::TunnelConfig tc = tunnel_config(opt);

  std::optional<net::EncoderTunnel> enc;
  std::optional<net::DecoderTunnel> dec;
  net::UdpSocket ingress;
  net::UdpSocket egress;

  net::ControlHandlers handlers;
  if (opt.role == "encode") {
    enc.emplace(tc, tunnel);
    add_ingress(loop, ingress, *opt.ingress, *enc);
    handlers.stats_jsonl = [&] { return obs::to_jsonl(enc->snapshot()); };
    handlers.flush_cache = [&] { return enc->flush_cache(); };
    handlers.switch_policy = [&](std::string_view name) {
      return enc->switch_policy(name);
    };
  } else {
    if (!egress.bind(net::SocketAddr{}))  // ephemeral plain-side source
      die(std::string("cannot bind egress socket: ") + std::strerror(errno));
    const net::SocketAddr to = *opt.egress;
    dec.emplace(tc, tunnel, [&egress, to](util::BytesView data) {
      (void)egress.send_to(to, data);  // kernel drop = plain-side loss
    });
    handlers.stats_jsonl = [&] { return obs::to_jsonl(dec->snapshot()); };
    handlers.flush_cache = [&] { return dec->flush_cache(); };
    // switch_policy stays unset: the decoder has no policy — the control
    // server answers the command with an error response.
  }
  handlers.shutdown = [&loop] { loop.stop(); };

  std::optional<net::ControlServer> control;
  if (opt.control) control.emplace(loop, *opt.control, handlers);

  std::fprintf(stderr, "bytecache_gateway: role=%s tunnel=%s control=%s\n",
               opt.role.c_str(), tunnel.local_addr().to_string().c_str(),
               control ? control->local_addr().to_string().c_str() : "-");
  loop.run();
  g_loop = nullptr;

  if (opt.stats_exit) {
    const std::string jsonl = enc ? obs::to_jsonl(enc->snapshot())
                                  : obs::to_jsonl(dec->snapshot());
    std::fwrite(jsonl.data(), 1, jsonl.size(), stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return run(parse_options(argc, argv)); }
