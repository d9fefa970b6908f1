// The analyzer alone: 100k pairs probed in lockstep once a second for 61
// simulated minutes, fed round by round to ShardedDetector::ingest_batch,
// then flushed. No probe engine, overlay, simulator or localizer runs.
//
// Inputs are a pure function of (seed, pair, round). Healthy pairs keep a
// per-pair base RTT with +-5% jitter and a 2e-5 loss rate. Seeded episodes,
// each on 200 pairs of its own:
//   loss burst   x2  120 rounds at 35% loss         -> kPacketLoss
//   RTT shift    x2  180 rounds at 1.8x RTT         -> kLatencyShortTerm
//   unreachable  x2   60 rounds of total loss       -> kUnreachable
//   slow drift   x2  RTT ramps +40% / +60% over the second half hour
//                    (too slow for the 5-minute LOF look-back)
//                                                   -> kLatencyLongTerm
// The ground-truth check: every pair of every episode fires the episode's
// kind while the episode runs (drift: once the second 30-minute long-term
// window closes), and the healthy pairs fire almost nothing. A traced run
// replays the rounds at 1 shard and at kShards and requires identical
// event fingerprints.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

#include "analyzer.h"
#include "common/rng.h"
#include "obs/context.h"
#include "obs/exposition.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace skh;
using core::AnomalyKind;

constexpr std::size_t kPairs = 100000;
constexpr std::size_t kRounds = 3660;  ///< 61 minutes at 1 s
constexpr std::size_t kEpisodePairs = 200;
/// False positives: anomaly events on the 99,200 healthy pairs over the
/// whole replay may number at most one per 5,000 of them (seeds 1-10 and
/// 1001-1010 gave 1 to 6). A detector that fires on more than one healthy
/// pair in 5,000 breaks it.
constexpr std::uint64_t kMaxHealthyEvents =
    (kPairs - 8 * kEpisodePairs) / 5000;

EndpointPair pair_of(std::size_t p) {
  const auto i = static_cast<std::uint32_t>(p);
  const auto j = static_cast<std::uint32_t>(p + kPairs);
  return {{ContainerId{i}, RnicId{i}}, {ContainerId{j}, RnicId{j}}};
}

struct Episode {
  AnomalyKind expect = AnomalyKind::kUnreachable;
  std::size_t start = 0;  ///< first round
  std::size_t end = 0;    ///< one past the last round
  double magnitude = 0.0;
  std::vector<std::uint32_t> pairs;
};

struct Plan {
  std::uint64_t seed = 0;
  std::vector<double> base_rtt_us;     ///< per pair
  std::vector<std::int16_t> episode;   ///< per pair, -1 = healthy
  std::vector<Episode> episodes;
};

Plan make_plan(std::uint64_t seed) {
  Plan plan;
  plan.seed = seed;
  RngStream rng = RngStream(seed).fork("analyzer-replay");
  plan.base_rtt_us.resize(kPairs);
  for (auto& b : plan.base_rtt_us) b = rng.uniform(14.0, 26.0);
  plan.episode.assign(kPairs, -1);
  std::vector<std::uint32_t> order(kPairs);
  std::iota(order.begin(), order.end(), 0u);
  std::shuffle(order.begin(), order.end(), rng.engine());
  std::size_t next = 0;
  auto add = [&](AnomalyKind kind, std::size_t start, std::size_t length,
                 double magnitude) {
    Episode e;
    e.expect = kind;
    e.start = start;
    e.end = start + length;
    e.magnitude = magnitude;
    e.pairs.assign(order.begin() + next, order.begin() + next + kEpisodePairs);
    next += kEpisodePairs;
    for (const auto p : e.pairs) {
      plan.episode[p] = static_cast<std::int16_t>(plan.episodes.size());
    }
    plan.episodes.push_back(std::move(e));
  };
  // Short episodes start after the 5-minute LOF look-back has filled and
  // end before the long-term window closes.
  auto start = [&](std::size_t length) {
    return static_cast<std::size_t>(
        rng.uniform_int(600, static_cast<std::int64_t>(3500 - length)));
  };
  for (int i = 0; i < 2; ++i) {
    add(AnomalyKind::kPacketLoss, start(120), 120, 0.35);
    add(AnomalyKind::kLatencyShortTerm, start(180), 180, 1.8);
    add(AnomalyKind::kUnreachable, start(60), 60, 0.0);
  }
  add(AnomalyKind::kLatencyLongTerm, 1800, 1800, 0.4);
  add(AnomalyKind::kLatencyLongTerm, 1800, 1800, 0.6);
  return plan;
}

/// The probe result of pair `p` in round `r`; `h` is the pair's draw for
/// the round.
void observe(const Plan& plan, std::size_t p, std::size_t r, std::uint64_t h,
             bool& delivered, double& rtt_us) {
  const double u_loss = static_cast<double>(h >> 32) * 0x1.0p-32;
  const double u_rtt = static_cast<double>(h & 0xffffffffULL) * 0x1.0p-32;
  delivered = u_loss >= 2e-5;
  rtt_us = plan.base_rtt_us[p] * (0.95 + 0.1 * u_rtt);
  const std::int16_t ep = plan.episode[p];
  if (ep < 0) return;
  const Episode& e = plan.episodes[static_cast<std::size_t>(ep)];
  if (r < e.start) return;
  switch (e.expect) {
    case AnomalyKind::kPacketLoss:
      if (r < e.end) delivered = u_loss >= e.magnitude;
      break;
    case AnomalyKind::kLatencyShortTerm:
      if (r < e.end) rtt_us *= e.magnitude;
      break;
    case AnomalyKind::kUnreachable:
      if (r < e.end) delivered = false;
      break;
    case AnomalyKind::kLatencyLongTerm: {
      const double ramp = std::min(
          1.0, static_cast<double>(r - e.start) /
                   static_cast<double>(e.end - e.start));
      rtt_us *= 1.0 + e.magnitude * ramp;
      break;
    }
  }
}

/// Which episode pairs fired their expected kind in time.
struct Recall {
  std::vector<char> fired;  ///< per pair
  std::uint64_t healthy_events = 0;

  void take(const Plan& plan, std::span<const core::AnomalyEvent> events) {
    for (const auto& e : events) {
      const std::uint32_t p = e.pair.src.rnic.value();
      const std::int16_t ep = plan.episode[p];
      if (ep < 0) {
        ++healthy_events;
        continue;
      }
      const Episode& x = plan.episodes[static_cast<std::size_t>(ep)];
      const double at = e.detected_at.to_seconds();
      const double until = x.expect == AnomalyKind::kLatencyLongTerm
                               ? static_cast<double>(kRounds)
                               : static_cast<double>(x.end) + 90.0;
      if (e.kind == x.expect && at >= static_cast<double>(x.start) &&
          at <= until) {
        fired[p] = 1;
      }
    }
  }
};

core::DetectorConfig replay_config() {
  core::DetectorConfig cfg;
  cfg.expected_pairs = kPairs;
  return cfg;
}

}  // namespace

Result run_replay_workload(const Options& opt) {
  Result res;
  Checks checks;
  Spans spans;
  const Plan plan = make_plan(opt.seed);
  const core::DetectorConfig cfg = replay_config();
  const SimTime flush_at = SimTime::seconds(static_cast<double>(kRounds));

  // Pairs never churn here, so their handles are resolved once.
  double setup_s = -1.0;
  std::vector<core::ShardedDetector::GlobalHandle> handles(kPairs);
  const OnReady register_pairs = [&](core::ShardedDetector& det) {
    for (std::size_t p = 0; p < kPairs; ++p) handles[p] = det.handle_of(pair_of(p));
    if (setup_s < 0.0) setup_s = seconds_since(process_start());
  };
  const RoundSource fill = [&](std::size_t r, core::ShardedDetector&,
                               std::vector<core::ShardedDetector::BatchItem>& b) {
    b.resize(kPairs);
    const SimTime now = SimTime::seconds(static_cast<double>(r));
    // One splitmix64 stream per round, seeded by (seed, round).
    std::uint64_t state = seed_mix(plan.seed, r);
    for (std::size_t p = 0; p < kPairs; ++p) {
      state += 0x9e3779b97f4a7c15ULL;
      std::uint64_t h = state;
      h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
      h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
      h ^= h >> 31;
      auto& item = b[p];
      item.handle = handles[p];
      item.seq = r + 1;
      item.sent_at = now;
      observe(plan, p, r, h, item.delivered, item.rtt_us);
    }
  };
  auto run_pass = [&](std::size_t shards, bool traced, Recall& recall) {
    recall.fired.assign(kPairs, 0);
    const EventSink sink = [&](std::span<const core::AnomalyEvent> events) {
      recall.take(plan, events);
    };
    return shard_pass(cfg, shards, kRounds, kPairs, register_pairs, fill, sink,
                      flush_at, traced, traced ? &spans : nullptr);
  };
  auto episodes_detected = [&](const Recall& recall) {
    std::size_t n = 0;
    for (const auto& e : plan.episodes) {
      const bool all = std::all_of(e.pairs.begin(), e.pairs.end(),
                                   [&](std::uint32_t p) { return recall.fired[p]; });
      if (all) {
        ++n;
      } else {
        std::fprintf(stderr, "missed: %.*s episode at rounds %zu-%zu\n",
                     static_cast<int>(core::to_string(e.expect).size()),
                     core::to_string(e.expect).data(), e.start, e.end);
      }
    }
    std::fprintf(stderr, "events on healthy pairs: %llu\n",
                 static_cast<unsigned long long>(recall.healthy_events));
    return n;
  };

  if (!opt.trace) {
    // Identical passes, as many as bring the measured time nearest to
    // --seconds at the 30 s a pass takes on the 4-vCPU reference host, at
    // least one: a count fixed by --seconds alone gives every run the same
    // work.
    const auto passes = static_cast<std::size_t>(
        std::max(1L, std::lround(opt.seconds / 30.0)));
    FastestRepeat fastest;
    double rss = 0.0;
    std::uint64_t probes = 0;
    std::size_t detected = 0;
    for (std::size_t n = 0; n < passes; ++n) {
      Recall recall;
      const ShardPass pass = run_pass(kShards, false, recall);
      const std::size_t found = episodes_detected(recall);
      checks.expect(found == plan.episodes.size(),
                    "every seeded episode fires its kind on all its pairs");
      checks.expect(recall.healthy_events <= kMaxHealthyEvents,
                    "anomaly events on healthy pairs stay rare");
      checks.expect(fastest.add(pass.round_ms, pass.flush_s),
                    "a repeated pass has the first pass's rounds");
      std::fprintf(stderr, "replay pass: run_s %.4f round_p50_ms %.4f\n",
                   pass.run_s, quantile(pass.round_ms, 0.5));
      if (n == 0) {
        rss = peak_rss_mb();  // the cold pass, as for the campaigns
        probes = pass.probes;
        detected = found;
      }
      res.attempted += pass.round_ms.size();
    }
    res.add("setup_s", setup_s, "s");
    res.add("run_s", fastest.run_s(), "s");
    res.add("probes_per_s", static_cast<double>(probes) / fastest.run_s(),
            "probes/s");
    res.add("round_p50_ms", quantile(fastest.round_ms(), 0.5), "ms");
    res.add("round_p99_ms", quantile(fastest.round_ms(), 0.99), "ms");
    res.add("peak_rss_mb", rss, "MB");
    res.add("faults_detected", static_cast<double>(detected), "count");
    res.correct = checks.all_passed();
    return res;
  }

  // Traced: the same rounds at 1 shard and at kShards, each with obs
  // attached so the shard facade publishes its merge-stall counter.
  Recall recall_one;
  Recall recall_many;
  ShardPass one;
  {
    Scope s(&spans, "replay.1_shard");
    one = run_pass(1, true, recall_one);
  }
  ShardPass many;
  {
    Scope s(&spans, "replay.n_shards");
    many = run_pass(kShards, true, recall_many);
  }
  res.attempted = one.round_ms.size() + many.round_ms.size();
  checks.expect(episodes_detected(recall_one) == plan.episodes.size() &&
                    episodes_detected(recall_many) == plan.episodes.size(),
                "every seeded episode fires its kind on all its pairs");
  checks.expect(recall_one.healthy_events <= kMaxHealthyEvents &&
                    recall_many.healthy_events <= kMaxHealthyEvents,
                "anomaly events on healthy pairs stay rare");
  checks.expect(one.fingerprint == many.fingerprint,
                "event fingerprint identical at 1 and N shards");
  checks.expect(one.counters == many.counters,
                "detector counters identical at 1 and N shards");

  // Registry scrape cost on a detector-only deployment.
  obs::Context ctx;
  {
    core::ShardedDetector det(cfg, 1, nullptr);
    det.attach_obs(&ctx);
    std::vector<core::AnomalyEvent> out;
    for (std::size_t p = 0; p < kPairs; ++p) {
      (void)det.ingest(det.handle_of(pair_of(p)), 1, SimTime{}, true,
                       plan.base_rtt_us[p], out);
    }
    for (int i = 0; i < 20; ++i) {
      Scope s(&spans, "obs.scrape");
      (void)obs::prometheus_text(ctx.registry.scrape());
    }
  }

  // Layers the analyzer alone never calls report 0.
  for (const char* name :
       {"probe.ns_per_probe", "probe.issued", "probe.dropped",
        "collector.ns_per_result", "telemetry.ns_per_result",
        "telemetry.dropped", "telemetry.duplicated", "telemetry.delayed"}) {
    res.add(name, 0.0, std::string_view(name).find("ns_per") !=
                               std::string_view::npos
                           ? "ns"
                           : "count");
  }
  add_detector_metrics(one, many, one.counters, res);
  res.add("localize.us_per_call", 0.0, "us");
  res.add("localize.calls", 0.0, "count");
  res.add("inference.ms_per_task", 0.0, "ms");
  res.add("hunter.checkpoint_ms", 0.0, "ms");
  res.add("hunter.restore_ms", 0.0, "ms");
  res.add("collective.emit_ns_per_step", 0.0, "ns");
  res.add("collective.ingest_ns_per_step", 0.0, "ns");
  res.add("forensic.bundle_ms", 0.0, "ms");
  res.add("obs.scrape_ms", spans.total_s("obs.scrape") / 20.0 * 1e3, "ms");
  res.add("cluster.launch_ms", 0.0, "ms");
  res.add("trace.run_s", many.run_s, "s");
  res.correct = checks.all_passed();
  if (!opt.trace_path.empty() && !spans.write_json(opt.trace_path)) {
    std::fprintf(stderr, "cannot write %s\n", opt.trace_path.c_str());
  }
  return res;
}

}  // namespace perfbench
