// One HTTP-like file retrieval (the paper's experiment unit: "a client
// retrieves a file from a HTTP server").
//
// Drives a TCP sender/receiver pair, measures the download time as seen
// by the client (request to last in-order byte), detects stalls (sender
// abort after max backoffs, or a wall-clock give-up), and verifies the
// delivered stream bit-for-bit.  Works with any flow of an app::Pipeline
// (the convenience form drives flow 0).
#pragma once

#include <functional>

#include "app/pipeline.h"
#include "sim/simulator.h"
#include "tcp/receiver.h"
#include "tcp/sender.h"
#include "util/bytes.h"

namespace bytecache::app {

struct TransferResult {
  bool completed = false;
  bool stalled = false;  // aborted by backoff limit or give-up timer
  double duration_s = 0.0;
  std::uint64_t file_size = 0;
  std::uint64_t delivered_bytes = 0;
  bool verified = false;  // delivered bytes equal the file prefix

  [[nodiscard]] double percent_retrieved() const {
    return file_size == 0
               ? 0.0
               : 100.0 * static_cast<double>(delivered_bytes) / file_size;
  }
};

class FileTransfer {
 public:
  /// Generic form: drives `sender`/`receiver` directly.  `request_delay`
  /// models the client's request reaching the server (half an RTT);
  /// `give_up` caps the transfer duration (safety net on top of the
  /// sender's backoff-limit abort).
  FileTransfer(sim::Simulator& sim, tcp::TcpSender& sender,
               tcp::TcpReceiver& receiver, util::Bytes file,
               sim::SimTime request_delay, sim::SimTime give_up);

  /// Convenience form over the pipeline's first flow.
  FileTransfer(sim::Simulator& sim, Pipeline& pipeline,
               util::Bytes file, sim::SimTime give_up = sim::sec(600));

  /// Starts the transfer at the current simulated time.
  void start();

  /// True once completed or stalled.
  [[nodiscard]] bool done() const { return done_; }

  /// Valid after done().
  [[nodiscard]] const TransferResult& result() const { return result_; }

  /// Runs the simulator until this transfer is done (or events run out).
  void run_to_completion();

 private:
  void finalize(bool completed);

  sim::Simulator& sim_;
  tcp::TcpSender& sender_;
  tcp::TcpReceiver& receiver_;
  util::Bytes file_;
  sim::SimTime request_delay_;
  sim::SimTime give_up_;
  sim::SimTime start_time_ = 0;
  sim::SimTime finish_time_ = 0;
  bool started_ = false;
  bool done_ = false;
  TransferResult result_;
};

}  // namespace bytecache::app
