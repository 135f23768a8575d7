// perfbench — the repository benchmark's measuring process.
//
//   perfbench --workload <hot_replay|churn_mix|tunnel_open> --seed <n>
//             --seconds <s> --trace <0|1> --bin-dir <dir>
//
// Prints one JSON object as its last stdout line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics":
//    {"<name>": {"value": ..., "unit": "..."}, ...}}
// and exits 0 only when every output check and guard held.  run.py
// builds this binary and is the documented entry point.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "drivers.h"
#include "rabin/scan_kernel.h"

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <hot_replay|"
               "churn_mix|tunnel_open> --seed <n> --seconds <s> --trace <0|1> "
               "--bin-dir <dir>\n",
               msg);
  std::exit(2);
}

void print_result(const perfbench::Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              r.correct() ? "true" : "false", r.attempted(), r.failed());
  bool first = true;
  for (const perfbench::Metric& m : r.metrics()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") workload = v;
    else if (flag == "--seed") opt.seed = std::strtoull(v, nullptr, 0);
    else if (flag == "--seconds") opt.seconds = std::strtod(v, nullptr);
    else if (flag == "--trace") opt.trace = std::strcmp(v, "0") != 0;
    else if (flag == "--bin-dir") opt.bin_dir = v;
    else usage(("unknown flag " + flag).c_str());
  }
  if (argc % 2 == 0) usage("flags take one value each");
  if (opt.seconds <= 0) usage("--seconds must be positive");

  std::fprintf(stderr, "perfbench: workload=%s seed=%" PRIu64
               " seconds=%g trace=%d scan_kernel=%s\n",
               workload.c_str(), opt.seed, opt.seconds, opt.trace ? 1 : 0,
               bytecache::rabin::scan_kernel().name);
  perfbench::Report r;
  try {
    if (workload == "hot_replay") perfbench::run_hot_replay(opt, r);
    else if (workload == "churn_mix") perfbench::run_churn_mix(opt, r);
    else if (workload == "tunnel_open") perfbench::run_tunnel_open(opt, r);
    else usage(("unknown workload '" + workload + "'").c_str());
  } catch (const std::exception& e) {
    r.fail("%s", e.what());
  }
  print_result(r);
  return r.correct() ? 0 : 1;
}
