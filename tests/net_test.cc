// Tests for the real-I/O layer (src/net, DESIGN.md §12): event-loop
// lifetime rules, the control-channel protocol, and the transport seam —
// including the acceptance check that the sim backend and the UDP
// loopback backend carry byte-identical wire traffic for the same
// plain-side stream.
#include <sys/epoll.h>
#include <unistd.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/control.h"
#include "net/event_loop.h"
#include "net/gateway_tunnel.h"
#include "net/udp_socket.h"
#include "net/udp_transport.h"
#include "packet/packet.h"
#include "tests/sim_transport.h"
#include "tests/testutil.h"
#include "util/rng.h"

namespace bytecache {
namespace {

using namespace std::chrono_literals;

/// Loopback with an ephemeral port.  NOT SocketAddr::parse: port 0 is
/// "unset" and parse rejects it by design.
net::SocketAddr loopback_any() {
  return net::SocketAddr{packet::make_ip(127, 0, 0, 1), 0};
}

// ---------------------------------------------------------- EventLoop --

TEST(EventLoopTest, OneshotTimerFiresOnce) {
  net::EventLoop loop;
  net::Timer timer(loop, [&] { loop.stop(); });
  timer.start_oneshot(1ms);
  EXPECT_TRUE(timer.armed());
  loop.run();
  EXPECT_EQ(timer.fired(), 1u);
  EXPECT_FALSE(timer.armed());
}

TEST(EventLoopTest, PeriodicTimerCancelStops) {
  net::EventLoop loop;
  int fires = 0;
  net::Timer timer(loop, [&] {
    if (++fires == 3) loop.stop();
  });
  timer.start_periodic(1ms);
  loop.run();
  EXPECT_EQ(fires, 3);
  timer.cancel();
  EXPECT_FALSE(timer.armed());
  // A cancelled timer stays quiet through further loop iterations.
  loop.run_once(20);
  EXPECT_EQ(timer.fired(), 3u);
}

// The PR 1 cautionary tale: a callback that destroys its own timer must
// not leave the loop dispatching into freed memory.
TEST(EventLoopTest, TimerDestroyedByOwnCallback) {
  net::EventLoop loop;
  std::unique_ptr<net::Timer> timer;
  timer = std::make_unique<net::Timer>(loop, [&] {
    timer.reset();  // destroys the Timer (and its std::function) mid-fire
    loop.stop();
  });
  timer->start_oneshot(1ms);
  loop.run();
  EXPECT_EQ(timer, nullptr);
  EXPECT_EQ(loop.watched_fds(), 0u);
}

// Two fds ready in the same epoll batch, each handler removing the
// other: exactly one handler may run — the removed registration must be
// skipped even though its event was already harvested.
TEST(EventLoopTest, HandlerRemovedEarlierInBatchIsNotInvoked) {
  net::EventLoop loop;
  int fds_a[2];
  int fds_b[2];
  ASSERT_EQ(::pipe(fds_a), 0);
  ASSERT_EQ(::pipe(fds_b), 0);
  int ran_a = 0;
  int ran_b = 0;
  loop.add_fd(fds_a[0], EPOLLIN, [&](std::uint32_t) {
    ++ran_a;
    loop.remove_fd(fds_b[0]);
  });
  loop.add_fd(fds_b[0], EPOLLIN, [&](std::uint32_t) {
    ++ran_b;
    loop.remove_fd(fds_a[0]);
  });
  ASSERT_EQ(::write(fds_a[1], "x", 1), 1);
  ASSERT_EQ(::write(fds_b[1], "x", 1), 1);
  loop.run_once(100);
  EXPECT_EQ(ran_a + ran_b, 1);
  // The handler that ran removed its counterpart; it itself remains.
  EXPECT_EQ(loop.watched_fds(), 1u);
  for (int fd : {fds_a[0], fds_a[1], fds_b[0], fds_b[1]}) ::close(fd);
}

TEST(EventLoopTest, HandlerMayRemoveItself) {
  net::EventLoop loop;
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  int ran = 0;
  loop.add_fd(fds[0], EPOLLIN, [&](std::uint32_t) {
    ++ran;
    loop.remove_fd(fds[0]);  // yanks this very registration mid-call
  });
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  loop.run_once(100);
  ASSERT_EQ(::write(fds[1], "x", 1), 1);
  loop.run_once(20);  // no registration left: nothing runs
  EXPECT_EQ(ran, 1);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(EventLoopTest, StopIsCrossBatchAndReentrant) {
  net::EventLoop loop;
  net::Timer timer(loop, [&] { loop.stop(); });
  timer.start_periodic(1ms);
  loop.run();  // returns because stop() was called from a handler
  // run() consumed the stop request: a second run with a fresh stop
  // works the same way (the flag does not stay latched).
  loop.run();
  EXPECT_GE(timer.fired(), 2u);
}

// -------------------------------------------------- Control protocol --

TEST(ControlProtocolTest, RequestRoundTrip) {
  net::ControlRequest req;
  req.command = net::ControlCommand::kSwitchPolicy;
  const std::string name = "k_distance";
  req.payload.assign(name.begin(), name.end());
  const util::Bytes wire = req.serialize();
  const auto parsed = net::ControlRequest::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->command, net::ControlCommand::kSwitchPolicy);
  EXPECT_EQ(parsed->payload, req.payload);
}

TEST(ControlProtocolTest, ResponseRoundTrip) {
  net::ControlResponse resp;
  resp.command = net::ControlCommand::kStats;
  resp.ok = true;
  resp.payload = {'p', 'o', 'n', 'g'};
  const util::Bytes wire = resp.serialize();
  const auto parsed = net::ControlResponse::parse(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->command, net::ControlCommand::kStats);
  EXPECT_TRUE(parsed->ok);
  EXPECT_EQ(parsed->payload, resp.payload);
}

TEST(ControlProtocolTest, StrictParseRejectsGarbage) {
  net::ControlRequest req;
  req.command = net::ControlCommand::kPing;
  util::Bytes wire = req.serialize();

  util::Bytes bad_magic = wire;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(net::ControlRequest::parse(bad_magic).has_value());

  const util::Bytes truncated(wire.begin(), wire.begin() + 3);
  EXPECT_FALSE(net::ControlRequest::parse(truncated).has_value());

  util::Bytes trailing = wire;
  trailing.push_back(0);  // length field no longer matches datagram size
  EXPECT_FALSE(net::ControlRequest::parse(trailing).has_value());

  util::Bytes unknown = wire;
  unknown[5] = 0x7F;  // command id nobody speaks
  EXPECT_FALSE(net::ControlRequest::parse(unknown).has_value());

  EXPECT_FALSE(net::ControlRequest::parse(util::Bytes{}).has_value());
  // A response frame is not a request frame.
  net::ControlResponse resp;
  resp.command = net::ControlCommand::kPing;
  EXPECT_FALSE(net::ControlRequest::parse(resp.serialize()).has_value());
}

// ------------------------------------------------------ Transports ----

/// One datagram of the redundant plain-side stream: a fixed random
/// corpus block stamped with the datagram index — high entropy inside
/// each datagram (so anchors exist), high redundancy across datagrams.
std::vector<util::Bytes> redundant_stream(std::size_t count,
                                          std::size_t size) {
  util::Rng rng(0xB17EC4C8Eull);
  util::Bytes base(size, 0);
  for (auto& b : base) b = static_cast<std::uint8_t>(rng.next_u64());
  std::vector<util::Bytes> out;
  for (std::size_t i = 0; i < count; ++i) {
    util::Bytes d = base;
    d[0] = static_cast<std::uint8_t>(i);
    out.push_back(std::move(d));
  }
  return out;
}

TEST(SimTransportTest, DeliversSerializedPackets) {
  sim::Simulator sim;
  net::SimTransportPair pair(sim, net::SimTransportConfig{});
  std::vector<util::Bytes> received;
  pair.end_b().set_handler([&](util::BytesView wire) {
    received.emplace_back(wire.begin(), wire.end());
  });
  const auto pkt = testutil::make_udp_packet(redundant_stream(1, 400)[0]);
  const util::Bytes wire = packet::to_wire(*pkt);
  EXPECT_TRUE(pair.end_a().send(wire));
  sim.run();
  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0], wire);
  EXPECT_EQ(pair.end_a().stats().datagrams_out, 1u);
  EXPECT_EQ(pair.end_b().stats().datagrams_in, 1u);
}

TEST(SimTransportTest, MalformedSendIsCountedNotDelivered) {
  sim::Simulator sim;
  net::SimTransportPair pair(sim, net::SimTransportConfig{});
  int delivered = 0;
  pair.end_b().set_handler([&](util::BytesView) { ++delivered; });
  const util::Bytes garbage = {1, 2, 3};
  EXPECT_FALSE(pair.end_a().send(garbage));
  sim.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(pair.malformed_sends(), 1u);
  EXPECT_EQ(pair.end_a().stats().send_failures, 1u);
}

/// Runs `stream` through an encoder/decoder tunnel pair over the sim
/// backend and returns the delivered plain datagrams plus a borrow of
/// the encoder tunnel for stats assertions.
struct SimRun {
  std::vector<util::Bytes> delivered;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t encoded_packets = 0;
};

SimRun run_sim_backend(const std::vector<util::Bytes>& stream) {
  sim::Simulator sim;
  net::SimTransportPair pair(sim, net::SimTransportConfig{});
  net::TunnelConfig tc;
  tc.gateway.policy = core::PolicyKind::kCacheFlush;
  net::EncoderTunnel enc(tc, pair.end_a());
  SimRun run;
  net::DecoderTunnel dec(tc, pair.end_b(), [&](util::BytesView data) {
    run.delivered.emplace_back(data.begin(), data.end());
  });
  for (const util::Bytes& d : stream) {
    enc.on_plain_datagram(d, /*source_key=*/1);
    sim.run();
  }
  const core::EncoderStats& stats = enc.gw().encoder()->stats();
  run.bytes_in = stats.bytes_in;
  run.bytes_out = stats.bytes_out;
  run.encoded_packets = stats.encoded_packets;
  return run;
}

TEST(GatewayTunnelTest, SimBackendDeliversAndCompresses) {
  const auto stream = redundant_stream(32, 1200);
  const SimRun run = run_sim_backend(stream);
  ASSERT_EQ(run.delivered.size(), stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i)
    EXPECT_EQ(run.delivered[i], stream[i]) << "datagram " << i;
  EXPECT_GT(run.encoded_packets, 0u);
  EXPECT_LT(run.bytes_out, run.bytes_in);
}

TEST(GatewayTunnelTest, OversizePlainDatagramIsDropped) {
  sim::Simulator sim;
  net::SimTransportPair pair(sim, net::SimTransportConfig{});
  net::TunnelConfig tc;
  net::EncoderTunnel enc(tc, pair.end_a());
  enc.on_plain_datagram(util::Bytes(70000, 0), 1);
  EXPECT_EQ(enc.stats().oversize_dropped, 1u);
  EXPECT_EQ(enc.stats().plain_in, 0u);
}

TEST(GatewayTunnelTest, FlushAndPolicySwitchTakeEffect) {
  sim::Simulator sim;
  net::SimTransportPair pair(sim, net::SimTransportConfig{});
  net::TunnelConfig tc;
  tc.gateway.policy = core::PolicyKind::kCacheFlush;
  net::EncoderTunnel enc(tc, pair.end_a());
  net::DecoderTunnel dec(tc, pair.end_b(), [](util::BytesView) {});

  EXPECT_FALSE(enc.switch_policy("no_such_policy"));
  EXPECT_FALSE(enc.switch_policy("none"));  // cannot switch to no codec
  ASSERT_TRUE(enc.switch_policy("k_distance"));
  const core::EncoderStats& stats = enc.gw().encoder()->stats();
  EXPECT_EQ(stats.flushes, 1u);  // the switch flushed

  for (const util::Bytes& d : redundant_stream(16, 1200)) {
    enc.on_plain_datagram(d, 1);
    sim.run();
  }
  EXPECT_GT(stats.references, 0u);  // k-distance behavior is live

  ASSERT_TRUE(enc.flush_cache());
  ASSERT_TRUE(dec.flush_cache());
  EXPECT_EQ(enc.gw().encoder()->cache().store().entries().size(), 0u);
  // Operator-requested flushes are flush *events*: they must show in the
  // stats snapshot the operator reads next (the loopback smoke pins the
  // same thing across the control channel).
  EXPECT_EQ(stats.flushes, 2u);
}

// ------------------------------------------- UDP loopback backend -----

/// Pumps `loop` until `done()` or ~2 s of wall clock.
void pump_until(net::EventLoop& loop, const std::function<bool()>& done) {
  const auto deadline = std::chrono::steady_clock::now() + 2s;
  while (!done() && std::chrono::steady_clock::now() < deadline)
    loop.run_once(10);
}

// The acceptance criterion of DESIGN.md §12: the same plain stream over
// the real-socket backend and the sim backend produces byte-identical
// encoder statistics (wire_ratio down to the integer byte counters).
TEST(GatewayTunnelTest, UdpLoopbackMatchesSimBackendByteForByte) {
  const auto stream = redundant_stream(32, 1200);
  const SimRun sim_run = run_sim_backend(stream);

  net::EventLoop loop;
  // Decoder side binds first (peerless: it learns the encoder's address
  // from the first datagram, the two-process launch-order contract).
  net::UdpTunnelTransport dec_t(loop, loopback_any(), net::SocketAddr{});
  net::UdpTunnelTransport enc_t(loop, loopback_any(), dec_t.local_addr());

  net::TunnelConfig tc;
  tc.gateway.policy = core::PolicyKind::kCacheFlush;
  net::EncoderTunnel enc(tc, enc_t);
  std::vector<util::Bytes> delivered;
  net::DecoderTunnel dec(tc, dec_t, [&](util::BytesView data) {
    delivered.emplace_back(data.begin(), data.end());
  });

  for (std::size_t i = 0; i < stream.size(); ++i) {
    enc.on_plain_datagram(stream[i], /*source_key=*/1);
    pump_until(loop, [&] { return delivered.size() == i + 1; });
  }
  ASSERT_EQ(delivered.size(), stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i)
    EXPECT_EQ(delivered[i], stream[i]) << "datagram " << i;

  const core::EncoderStats& stats = enc.gw().encoder()->stats();
  EXPECT_EQ(stats.bytes_in, sim_run.bytes_in);
  EXPECT_EQ(stats.bytes_out, sim_run.bytes_out);
  EXPECT_EQ(stats.encoded_packets, sim_run.encoded_packets);
  EXPECT_GT(stats.encoded_packets, 0u);
}

// ---------------------------------------------------- ControlServer ---

struct ControlFixture {
  net::EventLoop loop;
  bool flushed = false;
  std::string switched_to;
  bool shut_down = false;
  net::ControlServer server;
  net::UdpSocket client;

  ControlFixture()
      : server(loop, loopback_any(),
               net::ControlHandlers{
                   .stats_jsonl = [] { return std::string("{\"x\":1}\n"); },
                   .flush_cache =
                       [this] {
                         flushed = true;
                         return true;
                       },
                   .switch_policy =
                       [this](std::string_view name) {
                         switched_to = name;
                         return name == "k_distance";
                       },
                   .shutdown = [this] { shut_down = true; },
               }) {
    EXPECT_TRUE(client.bind(net::SocketAddr{}));
    loop.add_fd(client.fd(), EPOLLIN, [this](std::uint32_t) {
      client.drain([this](util::BytesView wire, const net::SocketAddr&) {
        if (auto r = net::ControlResponse::parse(wire))
          responses.push_back(std::move(*r));
      });
    });
  }

  std::optional<net::ControlResponse> roundtrip(net::ControlCommand cmd,
                                                std::string_view payload = {}) {
    net::ControlRequest req;
    req.command = cmd;
    req.payload.assign(payload.begin(), payload.end());
    EXPECT_TRUE(client.send_to(server.local_addr(), req.serialize()));
    const std::size_t want = responses.size() + 1;
    pump_until(loop, [&] { return responses.size() >= want; });
    if (responses.size() < want) return std::nullopt;
    return responses.back();
  }

  std::vector<net::ControlResponse> responses;
};

TEST(ControlServerTest, ServesCommands) {
  ControlFixture fx;
  auto pong = fx.roundtrip(net::ControlCommand::kPing);
  ASSERT_TRUE(pong.has_value());
  EXPECT_TRUE(pong->ok);
  EXPECT_EQ(std::string(pong->payload.begin(), pong->payload.end()), "pong");

  auto stats = fx.roundtrip(net::ControlCommand::kStats);
  ASSERT_TRUE(stats.has_value());
  EXPECT_TRUE(stats->ok);
  EXPECT_EQ(std::string(stats->payload.begin(), stats->payload.end()),
            "{\"x\":1}\n");

  auto flush = fx.roundtrip(net::ControlCommand::kFlushCache);
  ASSERT_TRUE(flush.has_value());
  EXPECT_TRUE(flush->ok);
  EXPECT_TRUE(fx.flushed);

  auto good = fx.roundtrip(net::ControlCommand::kSwitchPolicy, "k_distance");
  ASSERT_TRUE(good.has_value());
  EXPECT_TRUE(good->ok);
  EXPECT_EQ(fx.switched_to, "k_distance");
  auto bad = fx.roundtrip(net::ControlCommand::kSwitchPolicy, "bogus");
  ASSERT_TRUE(bad.has_value());
  EXPECT_FALSE(bad->ok);

  auto down = fx.roundtrip(net::ControlCommand::kShutdown);
  ASSERT_TRUE(down.has_value());
  EXPECT_TRUE(down->ok);
  EXPECT_TRUE(fx.shut_down);  // response sent BEFORE the handler ran
  EXPECT_EQ(fx.server.stats().requests, 6u);
}

TEST(ControlServerTest, UnsetHandlerAnswersError) {
  net::EventLoop loop;
  net::ControlServer server(loop, loopback_any(),
                            net::ControlHandlers{});  // nothing wired up
  net::UdpSocket client;
  ASSERT_TRUE(client.bind(net::SocketAddr{}));
  std::optional<net::ControlResponse> response;
  loop.add_fd(client.fd(), EPOLLIN, [&](std::uint32_t) {
    client.drain([&](util::BytesView wire, const net::SocketAddr&) {
      response = net::ControlResponse::parse(wire);
    });
  });
  net::ControlRequest req;
  req.command = net::ControlCommand::kFlushCache;
  ASSERT_TRUE(client.send_to(server.local_addr(), req.serialize()));
  pump_until(loop, [&] { return response.has_value(); });
  ASSERT_TRUE(response.has_value());
  EXPECT_FALSE(response->ok);
  EXPECT_EQ(server.stats().errors, 1u);
}

TEST(ControlServerTest, GarbageIsDroppedSilently) {
  net::EventLoop loop;
  net::ControlServer server(loop, loopback_any(),
                            net::ControlHandlers{});
  net::UdpSocket client;
  ASSERT_TRUE(client.bind(net::SocketAddr{}));
  bool answered = false;
  loop.add_fd(client.fd(), EPOLLIN,
              [&](std::uint32_t) { answered = true; });
  const util::Bytes garbage = {0xDE, 0xAD, 0xBE, 0xEF};
  ASSERT_TRUE(client.send_to(server.local_addr(), garbage));
  pump_until(loop, [&] { return server.stats().malformed >= 1; });
  loop.run_once(50);  // grace: any (wrong) answer would arrive now
  EXPECT_EQ(server.stats().malformed, 1u);
  EXPECT_FALSE(answered);
}

}  // namespace
}  // namespace bytecache
