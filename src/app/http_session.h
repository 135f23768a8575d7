// A full HTTP exchange over the paper's Fig. 3 topology.
//
// One HttpSession owns a Pipeline (the gateway pair and the two links)
// with no TCP flows of its own; each fetch() opens a fresh connection
// (new ports/ISN, as HTTP/1.0 does), sends the textual request
// client -> server on the reverse path, and streams the response back
// through encoder -> lossy link -> decoder.
// Because the gateway caches persist across fetches, repeated header
// boilerplate and repeated objects are eliminated across responses —
// byte caching's inter-connection savings, end to end.
#pragma once

#include <memory>
#include <string>

#include "app/http.h"
#include "app/pipeline.h"
#include "sim/simulator.h"

namespace bytecache::app {

struct FetchResult {
  bool ok = false;          // completed and parsed
  int status = 0;           // HTTP status code
  double duration_s = 0.0;  // request sent -> response complete
  HttpResponse response;    // valid when ok
  bool stalled = false;     // a TCP half aborted or the deadline passed
};

class HttpSession {
 public:
  HttpSession(sim::Simulator& sim, const PipelineConfig& config,
              HttpServer server);
  ~HttpSession();  // out of line: Exchange is incomplete here

  /// Fetches one object, driving the simulator until the exchange
  /// finishes or `deadline` elapses.
  FetchResult fetch(const std::string& path,
                    sim::SimTime deadline = sim::sec(300));

  /// The topology every exchange runs over (forward = server -> client).
  [[nodiscard]] Pipeline& pipeline() { return pipeline_; }
  [[nodiscard]] std::size_t fetches() const { return fetches_; }

 private:
  struct Exchange;

  sim::Simulator& sim_;
  HttpServer server_;
  Pipeline pipeline_;  // outlives current_, whose endpoints send into it
  std::unique_ptr<Exchange> current_;
  std::size_t fetches_ = 0;
};

}  // namespace bytecache::app
