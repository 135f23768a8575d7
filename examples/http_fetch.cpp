// A browsing session through the byte-caching gateways: real HTTP/1.0
// requests and responses over simulated TCP, with the shared cache
// eliminating redundancy across responses (repeated templates, repeated
// objects, repeated header boilerplate).
//
//   $ ./http_fetch [policy] [loss%]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "app/http_session.h"
#include "sim/simulator.h"
#include "workload/generators.h"
#include "workload/text.h"

using namespace bytecache;

int main(int argc, char** argv) {
  const std::string policy_name = argc > 1 ? argv[1] : "tcp_seq";
  const double loss = (argc > 2 ? std::atof(argv[2]) : 0.5) / 100.0;
  const auto policy = core::policy_from_string(policy_name);
  if (!policy) {
    std::fprintf(stderr, "unknown policy '%s'\n", policy_name.c_str());
    return 2;
  }

  // A small "site": pages share CSS/nav boilerplate and one page repeats.
  util::Rng rng(2012);
  app::HttpServer server;
  const char* paths[] = {"/", "/news", "/article", "/about"};
  for (const char* path : paths) {
    workload::WebPageParams params;
    params.items = 25;
    server.add_object(path, workload::make_web_page(rng, params));
  }

  sim::Simulator sim;
  app::PipelineConfig cfg;
  cfg.policy = *policy;
  cfg.loss_rate = loss;
  cfg.seed = 99;
  app::HttpSession session(sim, cfg, std::move(server));

  std::printf("browsing with policy=%s, %.1f%% loss\n\n", policy_name.c_str(),
              loss * 100);
  std::printf("%-10s %-7s %10s %12s %14s\n", "path", "status", "bytes",
              "time (ms)", "wire bytes");

  app::Pipeline& pipeline = session.pipeline();
  std::uint64_t last_wire = 0;
  // Browse the site, then revisit the front page (a warm-cache hit).
  const char* visits[] = {"/", "/news", "/article", "/about", "/"};
  for (const char* path : visits) {
    const app::FetchResult r = session.fetch(path);
    const std::uint64_t wire = pipeline.forward_link().stats().bytes_sent;
    if (!r.ok) {
      std::printf("%-10s FAILED (stalled)\n", path);
      return 1;
    }
    std::printf("%-10s %-7d %10zu %12.1f %14llu\n", path, r.status,
                r.response.body.size(), r.duration_s * 1000,
                static_cast<unsigned long long>(wire - last_wire));
    last_wire = wire;
  }

  if (const core::Encoder* enc = pipeline.encoder_gw().encoder()) {
    const auto& s = enc->stats();
    std::printf("\nencoder: %llu B offered, %llu B sent (%.0f%% saved "
                "across the whole session)\n",
                static_cast<unsigned long long>(s.bytes_in),
                static_cast<unsigned long long>(s.bytes_out),
                s.bytes_in > 0
                    ? 100.0 * s.bytes_saved() / static_cast<double>(s.bytes_in)
                    : 0.0);
  }
  std::printf("note how the boilerplate shared between pages and the "
              "revisited front page\ncost a fraction of their first "
              "transfer.\n");
  return 0;
}
