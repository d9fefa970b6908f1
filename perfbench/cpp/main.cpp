// perfbench: one workload, one seed, one process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <path>]
//
// Prints progress and failed checks on stderr and, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics, or with --trace 1 the per-layer ones (spans go
// to --trace-out). Exits non-zero, printing no result, on bad arguments
// or when the workload throws.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "report.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload steady_campaign|churn_campaign|"
               "analyzer_replay --seed N --seconds S --trace 0|1 "
               "[--trace-out PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") {
        opt.workload = value;
      } else if (key == "--seed") {
        opt.seed = std::stoull(value);
      } else if (key == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "--trace") {
        opt.trace = value == "1";
      } else if (key == "--trace-out") {
        opt.trace_path = value;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (argc % 2 != 1) return usage();

  // The calling thread drives a campaign or feeds the replay on the first
  // CPU; the threads it starts take the next ones.
  perfbench::pin_thread(0);
  try {
    perfbench::Result res;
    if (opt.workload == "steady_campaign" || opt.workload == "churn_campaign") {
      res = perfbench::run_campaign_workload(opt);
    } else if (opt.workload == "analyzer_replay") {
      res = perfbench::run_replay_workload(opt);
    } else {
      return usage();
    }
    std::printf("%s\n", perfbench::result_json(res).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
