// HTTP message parsing and full exchanges over the DRE pipeline.
#include <gtest/gtest.h>

#include "app/http.h"
#include "app/http_session.h"
#include "workload/generators.h"
#include "workload/text.h"

namespace bytecache::app {
namespace {

using util::Bytes;
using util::Rng;

// ------------------------------------------------------------ messages --

TEST(HttpRequest, SerializeParseRoundTrip) {
  HttpRequest req;
  req.path = "/index.html";
  req.headers = {{"Host", "example.com"}, {"Accept", "*/*"}};
  auto parsed = HttpRequest::parse(req.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->method, "GET");
  EXPECT_EQ(parsed->path, "/index.html");
  ASSERT_EQ(parsed->headers.size(), 2u);
  EXPECT_EQ(parsed->headers[0].first, "Host");
  EXPECT_EQ(parsed->headers[0].second, "example.com");
}

TEST(HttpRequest, IncompleteIsRejected) {
  const Bytes partial = util::to_bytes("GET /x HTTP/1.0\r\nHost: h\r\n");
  EXPECT_FALSE(HttpRequest::parse(partial).has_value());
  EXPECT_FALSE(HttpRequest::parse({}).has_value());
}

TEST(HttpRequest, MalformedStartLineRejected) {
  const Bytes bad = util::to_bytes("GETPATH\r\n\r\n");
  EXPECT_FALSE(HttpRequest::parse(bad).has_value());
  const Bytes not_http = util::to_bytes("GET / FTP/1.0\r\n\r\n");
  EXPECT_FALSE(HttpRequest::parse(not_http).has_value());
}

TEST(HttpResponse, SerializeParseRoundTrip) {
  HttpResponse resp;
  resp.status = 200;
  resp.headers = {{"Content-Type", "text/plain"}};
  resp.body = util::to_bytes("hello body");
  auto parsed = HttpResponse::parse(resp.serialize());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->status, 200);
  EXPECT_EQ(parsed->body, resp.body);
  EXPECT_EQ(parsed->header("content-type"), "text/plain");  // case-insensitive
  EXPECT_EQ(parsed->header("content-length"),
            std::to_string(resp.body.size()));
}

TEST(HttpResponse, BytesMissingTracksBody) {
  HttpResponse resp;
  resp.body = Bytes(100, 'x');
  const Bytes wire = resp.serialize();
  // Header not complete yet:
  EXPECT_FALSE(
      HttpResponse::bytes_missing(util::BytesView(wire.data(), 10)).has_value());
  // Header complete, 40 body bytes missing:
  const std::size_t head = wire.size() - 100;
  auto missing =
      HttpResponse::bytes_missing(util::BytesView(wire.data(), head + 60));
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(*missing, 40u);
  // Complete:
  missing = HttpResponse::bytes_missing(wire);
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(*missing, 0u);
}

TEST(HttpResponse, ParseRequiresFullBody) {
  HttpResponse resp;
  resp.body = Bytes(50, 'b');
  Bytes wire = resp.serialize();
  wire.resize(wire.size() - 1);
  EXPECT_FALSE(HttpResponse::parse(wire).has_value());
}

// -------------------------------------------------------------- server --

TEST(HttpServer, ServesAndRejects) {
  HttpServer server;
  server.add_object("/a", util::to_bytes("AAA"), "text/plain");
  HttpRequest get_a;
  get_a.path = "/a";
  auto resp = server.handle(get_a);
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(util::to_string(resp.body), "AAA");
  EXPECT_EQ(resp.header("Content-Type"), "text/plain");

  HttpRequest get_missing;
  get_missing.path = "/nope";
  EXPECT_EQ(server.handle(get_missing).status, 404);

  HttpRequest post;
  post.method = "POST";
  post.path = "/a";
  EXPECT_EQ(server.handle(post).status, 405);
}

// ------------------------------------------------------------- session --

HttpServer make_site(Rng& rng, std::size_t pages, std::size_t page_kb = 40) {
  HttpServer server;
  for (std::size_t i = 0; i < pages; ++i) {
    workload::WebPageParams params;
    params.items = 10 + 3 * static_cast<int>(i);
    util::Bytes page = workload::make_web_page(rng, params);
    // Grow to the requested size with fresh prose (not byte runs, which a
    // value-sampling codec legitimately cannot anchor).
    while (page.size() < page_kb * 1024) {
      util::append(page, util::to_bytes(workload::make_sentence(rng)));
    }
    page.resize(page_kb * 1024);
    server.add_object("/page" + std::to_string(i), std::move(page));
  }
  return server;
}

TEST(HttpSession, FetchesOneObject) {
  sim::Simulator sim;
  Rng rng(1);
  app::PipelineConfig cfg;
  cfg.policy = core::PolicyKind::kCacheFlush;
  HttpServer server = make_site(rng, 1);
  HttpRequest probe;
  probe.path = "/page0";
  const Bytes expected = server.handle(probe).body;
  HttpSession session(sim, cfg, std::move(server));
  FetchResult r = session.fetch("/page0");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.response.body, expected);
  EXPECT_GT(r.duration_s, 0.0);
}

TEST(HttpSession, NotFoundStillDelivered) {
  sim::Simulator sim;
  Rng rng(2);
  app::PipelineConfig cfg;
  cfg.policy = core::PolicyKind::kTcpSeq;
  HttpSession session(sim, cfg, make_site(rng, 1));
  FetchResult r = session.fetch("/missing");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.status, 404);
}

TEST(HttpSession, SequentialFetchesShareTheCache) {
  // Fetching the same object twice: the second response is almost
  // entirely eliminated by the byte cache.
  sim::Simulator sim;
  Rng rng(3);
  app::PipelineConfig cfg;
  cfg.policy = core::PolicyKind::kTcpSeq;
  HttpSession session(sim, cfg, make_site(rng, 1, 60));

  const sim::Link& link = session.pipeline().forward_link();
  const std::uint64_t wire0 = 0;
  FetchResult first = session.fetch("/page0");
  ASSERT_TRUE(first.ok);
  const std::uint64_t wire1 = link.stats().bytes_sent;
  FetchResult second = session.fetch("/page0");
  ASSERT_TRUE(second.ok);
  const std::uint64_t wire2 = link.stats().bytes_sent;
  EXPECT_EQ(second.response.body, first.response.body);
  const std::uint64_t cost1 = wire1 - wire0;
  const std::uint64_t cost2 = wire2 - wire1;
  EXPECT_LT(cost2, cost1 / 3);  // the repeat is mostly references
}

TEST(HttpSession, SurvivesLossyLink) {
  sim::Simulator sim;
  Rng rng(4);
  app::PipelineConfig cfg;
  cfg.policy = core::PolicyKind::kCacheFlush;
  cfg.loss_rate = 0.03;
  cfg.seed = 9;
  HttpServer server = make_site(rng, 2);
  HttpRequest probe;
  probe.path = "/page1";
  const Bytes expected = server.handle(probe).body;
  HttpSession session(sim, cfg, std::move(server));
  FetchResult r = session.fetch("/page1");
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.response.body, expected);
}

TEST(HttpSession, NaiveStallsUnderLossHttpToo) {
  sim::Simulator sim;
  Rng rng(5);
  app::PipelineConfig cfg;
  cfg.policy = core::PolicyKind::kNaive;
  cfg.loss_rate = 0.02;
  cfg.seed = 3;
  // A large, redundant object: the first loss wedges the response.
  HttpServer server;
  server.add_object("/big", workload::make_file1(rng, 400'000));
  HttpSession session(sim, cfg, std::move(server));
  FetchResult r = session.fetch("/big", sim::sec(150));
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.stalled);
}

TEST(HttpSession, ManyObjectsSequentially) {
  sim::Simulator sim;
  Rng rng(6);
  app::PipelineConfig cfg;
  cfg.policy = core::PolicyKind::kCacheFlush;
  cfg.loss_rate = 0.01;
  HttpSession session(sim, cfg, make_site(rng, 5, 25));
  for (int i = 0; i < 5; ++i) {
    FetchResult r = session.fetch("/page" + std::to_string(i));
    ASSERT_TRUE(r.ok) << i;
    EXPECT_EQ(r.status, 200) << i;
  }
  EXPECT_EQ(session.fetches(), 5u);
}

// The session runs over app::Pipeline, so it gets the whole Fig. 3
// topology: periodic audits, resilience feedback and reverse-link loss.

TEST(HttpSession, RegistersTheAuditorWithTheSimulator) {
  sim::Simulator sim;
  Rng rng(7);
  app::PipelineConfig cfg;
  cfg.policy = core::PolicyKind::kTcpSeq;
  cfg.audit_interval_events = 16;
  HttpSession session(sim, cfg, make_site(rng, 1));
  ASSERT_TRUE(session.fetch("/page0").ok);
  EXPECT_GT(sim.audits_run(), 0u);
}

TEST(HttpSession, EpochResyncLossReportsReachTheEncoder) {
  sim::Simulator sim;
  Rng rng(8);
  app::PipelineConfig cfg;
  cfg.policy = core::PolicyKind::kNaive;
  cfg.dre.epoch_resync = true;
  cfg.loss_rate = 0.03;
  cfg.seed = 3;
  HttpServer server;
  server.add_object("/big", workload::make_file1(rng, 200'000));
  HttpSession session(sim, cfg, std::move(server));
  session.fetch("/big", sim::sec(150));
  Pipeline& pipeline = session.pipeline();
  EXPECT_GT(pipeline.decoder_gw().stats().loss_reports_sent, 0u);
  EXPECT_GT(pipeline.encoder_gw().stats().loss_reports, 0u);
  EXPECT_GT(pipeline.encoder_gw().stats().channel_drops_seen, 0u);
}

TEST(HttpSession, ReverseLinkLossApplies) {
  sim::Simulator sim;
  Rng rng(9);
  app::PipelineConfig cfg;
  cfg.policy = core::PolicyKind::kCacheFlush;
  cfg.reverse_loss_rate = 0.05;
  cfg.seed = 5;
  HttpSession session(sim, cfg, make_site(rng, 3, 40));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(session.fetch("/page" + std::to_string(i)).ok) << i;
  }
  EXPECT_GT(session.pipeline().reverse_link().stats().drops_loss, 0u);
}

}  // namespace
}  // namespace bytecache::app
