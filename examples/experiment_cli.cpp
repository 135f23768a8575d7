// Command-line experiment runner: the full harness behind one flag set.
//
//   $ ./experiment_cli --policy=cache_flush --loss=5 --trials=10
//         --file=file1 --size-kb=574 --csv
//
// Flags (all optional):
//   --policy=none|naive|cache_flush|tcp_seq|k_distance
//   --loss=<percent>          forward-link loss rate     (default 1)
//   --bursty                  Gilbert-Elliott loss instead of Bernoulli
//   --corrupt=<percent>       corruption probability     (default 0)
//   --reorder=<percent>       reordering probability     (default 0)
//   --file=file1|file2|ebook|video|webpage|@/path/to/file (default file1)
//   --size-kb=<n>             object size                (default 574)
//   --k=<n>                   k-distance parameter       (default 8)
//   --trials=<n>              trials to aggregate        (default 5)
//   --seed=<n>                base seed                  (default 1)
//   --nack                    enable decoder NACK feedback
//   --ack-gated               enable ACK-gated references
//   --epoch-resync            epoch-stamped cache resync (DESIGN.md §9)
//   --coded                   coded repair: FEC generations over the DRE
//                             stream + reorder-tolerant decoding (§13);
//                             implies --epoch-resync (v3 wire needs it)
//   --csv                     machine-readable one-line-per-trial output
//   --json                    one JSON object per trial
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness/experiment.h"
#include "harness/table.h"
#include "workload/generators.h"

using namespace bytecache;

namespace {

struct Options {
  std::string policy = "cache_flush";
  double loss = 0.01;
  bool bursty = false;
  double corrupt = 0.0;
  double reorder = 0.0;
  std::string file = "file1";
  std::size_t size_kb = 574;
  std::size_t k = 8;
  std::size_t trials = 5;
  std::uint64_t seed = 1;
  bool nack = false;
  bool ack_gated = false;
  bool epoch_resync = false;
  bool coded = false;
  bool csv = false;
  bool json = false;
};

bool parse_flag(const char* arg, const char* name, std::string& out) {
  const std::size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    out = arg + len + 1;
    return true;
  }
  return false;
}

[[noreturn]] void usage_error(const char* arg) {
  std::fprintf(stderr, "unknown argument '%s' (see header comment)\n", arg);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  std::string v;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (parse_flag(a, "--policy", v)) opt.policy = v;
    else if (parse_flag(a, "--loss", v)) opt.loss = std::atof(v.c_str()) / 100;
    else if (std::strcmp(a, "--bursty") == 0) opt.bursty = true;
    else if (parse_flag(a, "--corrupt", v)) opt.corrupt = std::atof(v.c_str()) / 100;
    else if (parse_flag(a, "--reorder", v)) opt.reorder = std::atof(v.c_str()) / 100;
    else if (parse_flag(a, "--file", v)) opt.file = v;
    else if (parse_flag(a, "--size-kb", v)) opt.size_kb = std::atoi(v.c_str());
    else if (parse_flag(a, "--k", v)) opt.k = std::atoi(v.c_str());
    else if (parse_flag(a, "--trials", v)) opt.trials = std::atoi(v.c_str());
    else if (parse_flag(a, "--seed", v)) opt.seed = std::atoll(v.c_str());
    else if (std::strcmp(a, "--nack") == 0) opt.nack = true;
    else if (std::strcmp(a, "--ack-gated") == 0) opt.ack_gated = true;
    else if (std::strcmp(a, "--epoch-resync") == 0) opt.epoch_resync = true;
    else if (std::strcmp(a, "--coded") == 0) opt.coded = true;
    else if (std::strcmp(a, "--csv") == 0) opt.csv = true;
    else if (std::strcmp(a, "--json") == 0) opt.json = true;
    else usage_error(a);
  }
  return opt;
}

util::Bytes make_object(const Options& opt) {
  util::Rng rng(opt.seed ^ 0xF00D);
  const std::size_t size = opt.size_kb * 1024;
  if (!opt.file.empty() && opt.file[0] == '@') {
    auto loaded = workload::load_file(opt.file.substr(1));
    if (!loaded) {
      std::fprintf(stderr, "cannot read '%s'\n", opt.file.c_str() + 1);
      std::exit(2);
    }
    return *loaded;
  }
  if (opt.file == "file1") return workload::make_file1(rng, size);
  if (opt.file == "file2") return workload::make_file2(rng, size);
  if (opt.file == "ebook") return workload::make_ebook(rng, {.size = size});
  if (opt.file == "video") return workload::make_video(rng, size);
  if (opt.file == "webpage") {
    util::Bytes object;
    while (object.size() < size) {
      util::append(object, workload::make_web_page(rng, {}));
    }
    object.resize(size);
    return object;
  }
  std::fprintf(stderr, "unknown --file '%s'\n", opt.file.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  const auto policy = core::policy_from_string(opt.policy);
  if (!policy) {
    std::fprintf(stderr, "unknown --policy '%s'\n", opt.policy.c_str());
    return 2;
  }

  harness::ExperimentConfig cfg;
  cfg.policy = *policy;
  cfg.loss_rate = opt.loss;
  cfg.bursty_loss = opt.bursty;
  cfg.forward_link.corrupt_prob = opt.corrupt;
  cfg.forward_link.reorder_prob = opt.reorder;
  cfg.dre.k_distance = opt.k;
  cfg.dre.nack_feedback = opt.nack;
  cfg.dre.ack_gated = opt.ack_gated;
  cfg.dre.epoch_resync = opt.epoch_resync || opt.coded;
  cfg.dre.coded_repair = opt.coded;
  cfg.trials = opt.trials;
  cfg.seed = opt.seed;

  const util::Bytes object = make_object(opt);
  const auto agg = harness::run_experiment(cfg, object);

  harness::Table table({"trial", "completed", "duration_s", "wire_bytes",
                        "actual_loss", "perceived_loss", "retrieved_%"});
  for (std::size_t i = 0; i < agg.trials.size(); ++i) {
    const auto& t = agg.trials[i];
    table.add_row({std::to_string(i + 1), t.completed ? "yes" : "NO",
                   harness::Table::num(t.duration_s, 3),
                   std::to_string(t.wire_bytes_forward),
                   harness::Table::num(t.actual_loss * 100, 2),
                   harness::Table::num(t.perceived_loss * 100, 2),
                   harness::Table::num(t.percent_retrieved, 1)});
  }
  if (opt.json) {
    for (const auto& t : agg.trials) {
      std::printf("%s\n", harness::to_json(t).c_str());
    }
    return 0;
  }
  if (opt.csv) {
    std::fputs(table.to_csv().c_str(), stdout);
    return 0;
  }
  std::printf("policy=%s loss=%.1f%% file=%s (%zu KB) trials=%zu\n",
              opt.policy.c_str(), opt.loss * 100, opt.file.c_str(),
              opt.size_kb, opt.trials);
  table.print();
  std::printf("\ncompletion %.0f%%   mean duration %.3f s (+/- %.3f)   "
              "mean wire bytes %.0f   mean perceived loss %.1f%%\n",
              agg.completion_rate * 100, agg.duration_s.mean(),
              agg.duration_s.stddev(), agg.wire_bytes.mean(),
              agg.perceived_loss.mean() * 100);
  return 0;
}
