// Shared plumbing of the benchmark driver: wall clocks, order statistics,
// the result line, and the in-memory span recorder of traced runs.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Taken during static initialisation, before main(): the zero point of
/// `setup_s`.
[[nodiscard]] Clock::time_point process_start();

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated q-quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> xs, double q);

/// Peak resident set of this process so far, in MB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// How many CPUs the process may run on (its affinity mask at start), at
/// least 1.
[[nodiscard]] std::size_t usable_cpus();

/// Pins the calling thread to the `k`-th CPU the process may run on
/// (counted modulo their number). On a shared 4-vCPU host, threads left to
/// move between vCPUs made a run's tail rounds up to a quarter slower than
/// the next run's; pinned, the rounds of runs agree. Best effort: if the
/// kernel refuses, the thread stays where it is.
void pin_thread(std::size_t k);

/// Round times of identical repeats of one workload (same seed, so the
/// same rounds doing the same work), folded round by round into the
/// fastest repeat: bursts of interference from the rest of the host hit
/// different rounds in different repeats and drop out.
class FastestRepeat {
 public:
  /// Folds in one repeat: its per-round times and the time it spent
  /// outside rounds. Returns false if its round count differs from the
  /// first repeat's.
  bool add(const std::vector<double>& round_ms, double edge_s);

  [[nodiscard]] const std::vector<double>& round_ms() const noexcept {
    return round_ms_;
  }
  /// Sum of the fastest round times plus the fastest time outside rounds.
  [[nodiscard]] double run_s() const;

 private:
  std::vector<double> round_ms_;
  double edge_s_ = 0.0;
  std::size_t repeats_ = 0;
};

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one invocation prints as its last line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

/// The one-line JSON object `{"correct", "attempted", "failed", "metrics"}`.
[[nodiscard]] std::string result_json(const Result& r);

/// A failed ground-truth check: printed to stderr and folded into
/// `Result::correct`. Safe to share between threads.
class Checks {
 public:
  void expect(bool ok, std::string_view what);
  [[nodiscard]] bool all_passed() const noexcept { return failures_ == 0; }

 private:
  std::atomic<std::size_t> failures_{0};
};

/// In-memory span recorder for traced runs: name, start, end and parent of
/// every span, written out once at exit. Spans nest strictly (a child ends
/// before its parent), so a span's self time is its length minus the sum
/// of its children's lengths.
class Spans {
 public:
  /// Opens a span under the innermost open one; returns its index.
  std::size_t open(std::string_view name);
  void close(std::size_t index);

  /// Summed wall time of every span named `name`, in seconds.
  [[nodiscard]] double total_s(std::string_view name) const;
  /// Number of spans named `name`.
  [[nodiscard]] std::size_t count(std::string_view name) const;

  /// Per-name totals (calls, total and self seconds) plus every span, as
  /// JSON, to `path`. Returns false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t name = 0;
    std::int64_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };
  std::uint32_t intern(std::string_view name);

  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
};

/// RAII span: opens on construction, closes on destruction. A null
/// recorder makes it a no-op, so untraced code paths share the call sites.
class Scope {
 public:
  Scope(Spans* spans, std::string_view name)
      : spans_(spans), index_(spans != nullptr ? spans->open(name) : 0) {}
  ~Scope() {
    if (spans_ != nullptr) spans_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Spans* spans_;
  std::size_t index_;
};

}  // namespace perfbench
