#include "report.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>

namespace perfbench {

namespace {

const Clock::time_point kProcessStart = Clock::now();

/// The CPUs the process may run on, read before any thread is pinned.
const cpu_set_t kUsableCpus = [] {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) CPU_SET(0, &set);
  return set;
}();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now() - kProcessStart)
      .count();
}

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

Clock::time_point process_start() { return kProcessStart; }

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::size_t usable_cpus() {
  return static_cast<std::size_t>(std::max(1, CPU_COUNT(&kUsableCpus)));
}

void pin_thread(std::size_t k) {
  std::size_t skip = k % usable_cpus();
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &kUsableCpus) || skip-- > 0) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    (void)pthread_setaffinity_np(pthread_self(), sizeof one, &one);
    return;
  }
}

bool FastestRepeat::add(const std::vector<double>& round_ms, double edge_s) {
  if (repeats_++ == 0) {
    round_ms_ = round_ms;
    edge_s_ = edge_s;
    return true;
  }
  const std::size_t n = std::min(round_ms_.size(), round_ms.size());
  for (std::size_t i = 0; i < n; ++i) {
    round_ms_[i] = std::min(round_ms_[i], round_ms[i]);
  }
  edge_s_ = std::min(edge_s_, edge_s);
  return round_ms.size() == round_ms_.size();
}

double FastestRepeat::run_s() const {
  double s = edge_s_;
  for (double ms : round_ms_) s += ms / 1e3;
  return s;
}

std::string result_json(const Result& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) out += ", ";
    out += quoted(m.name) + ": {\"value\": " + number(m.value) +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  return out + "}}";
}

void Checks::expect(bool ok, std::string_view what) {
  if (ok) return;
  ++failures_;
  std::fprintf(stderr, "CHECK FAILED: %.*s\n", static_cast<int>(what.size()),
               what.data());
}

std::uint32_t Spans::intern(std::string_view name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<std::uint32_t>(i);
  }
  names_.emplace_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

std::size_t Spans::open(std::string_view name) {
  Span s;
  s.name = intern(name);
  s.parent = stack_.empty() ? -1 : static_cast<std::int64_t>(stack_.back());
  s.start_ns = now_ns();
  spans_.push_back(s);
  stack_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Spans::close(std::size_t index) {
  spans_[index].end_ns = now_ns();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

double Spans::total_s(std::string_view name) const {
  std::int64_t ns = 0;
  for (const Span& s : spans_) {
    if (names_[s.name] == name) ns += s.end_ns - s.start_ns;
  }
  return static_cast<double>(ns) / 1e9;
}

std::size_t Spans::count(std::string_view name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(),
                    [&](const Span& s) { return names_[s.name] == name; }));
}

bool Spans::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  // Self time: a span's length minus its direct children's lengths.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  struct Totals {
    std::uint64_t calls = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, Totals> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Totals& t = by_name[names_[s.name]];
    ++t.calls;
    t.total_ns += s.end_ns - s.start_ns;
    t.self_ns += s.end_ns - s.start_ns - child_ns[i];
  }
  out << "{\"layers\": {";
  bool first = true;
  for (const auto& [name, t] : by_name) {
    out << (first ? "" : ", ") << quoted(name) << ": {\"calls\": " << t.calls
        << ", \"total_s\": " << number(static_cast<double>(t.total_ns) / 1e9)
        << ", \"self_s\": " << number(static_cast<double>(t.self_ns) / 1e9)
        << "}";
    first = false;
  }
  out << "},\n\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "[" << quoted(names_[s.name]) << ", "
        << s.start_ns << ", " << s.end_ns << ", " << s.parent << "]";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
