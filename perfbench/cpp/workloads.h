// The benchmark's workloads. Each runs in one process, prints its result
// line from main(), and reports failed ground-truth checks on stderr.
#pragma once

#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Measured time to aim at; it sets how many campaign phases or replay
  /// passes a run makes.
  double seconds = 30.0;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Where a traced run writes its spans.
  std::string trace_path;
};

/// `steady_campaign` and `churn_campaign`.
[[nodiscard]] Result run_campaign_workload(const Options& opt);

/// `analyzer_replay`.
[[nodiscard]] Result run_replay_workload(const Options& opt);

}  // namespace perfbench
