// The three workload drivers and the pieces they share.
//
//   hot_replay   closed loop, one thread: core::Encoder -> core::Decoder
//   churn_mix    closed loop: ShardedEncoderGateway -> ShardedDecoderGateway
//   tunnel_open  open loop over loopback through two bytecache_gateway
//                processes and one generator/sink (this process)
//
// With `trace` off a driver reports the end-to-end metrics; with it on,
// the per-layer ledger (ledger.h) plus the layers only a driver can see
// (gateway.*, net.*, obs.trace_overhead_ratio).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "streams.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string bin_dir;  // where bytecache_gateway was built
};

void run_hot_replay(const RunOptions& opt, Report& r);
void run_churn_mix(const RunOptions& opt, Report& r);
void run_tunnel_open(const RunOptions& opt, Report& r);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A field of /proc/<pid>/status in KiB ("VmRSS", "VmHWM"); pid 0 = self.
[[nodiscard]] long proc_status_kb(int pid, const char* field);

/// Fixed-capacity sample buffer.  Its storage is allocated and touched
/// up front, so recording never moves the process's resident size (the
/// stationarity guard compares RSS after warm-up with RSS at the end).
class Samples {
 public:
  explicit Samples(std::size_t capacity = 0) : v_(capacity, 0.0f) {}
  void push(double x) {
    if (n_ < v_.size()) v_[n_++] = static_cast<float>(x);
  }
  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::vector<double> values() const {
    return {v_.begin(), v_.begin() + static_cast<std::ptrdiff_t>(n_)};
  }

 private:
  std::vector<float> v_;  // float halves the footprint; ns need no more
  std::size_t n_ = 0;
};

}  // namespace perfbench
