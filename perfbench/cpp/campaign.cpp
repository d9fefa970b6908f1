// The two monitored-cluster campaigns.
//
// Each campaign is the one runner::run_campaign runs for the same config
// and seed, set up step by step here and driven one EventQueue::step at a
// time so that every probing round can be timed. A run drives one campaign
// alone (the cold set-up, counted as `setup_s`), then identical copies of
// it (fresh deployments, same seed) on threads of their own, and counts
// each round at its fastest copy.
//
// Ground truth, checked on every campaign:
//  * the benchmark's own matcher pairs failure cases with injected faults
//    and must agree with core::score_campaign on detected and localized
//    counts; no case opens during warm-up; the NVLink fault opens no
//    probe-plane case;
//  * probes are conserved from `probe.issued` through the telemetry
//    channel to `detector.probes_ingested`;
//  * runner::run_campaign reaches the same score and probe counts.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "collective/diag.h"
#include "common/rng.h"
#include "core/diagnostics.h"
#include "core/forensic.h"
#include "core/harness.h"
#include "core/localize.h"
#include "core/metrics.h"
#include "core/skeleton_inference.h"
#include "obs/exposition.h"
#include "probe/agent.h"
#include "probe/engine.h"
#include "probe/telemetry.h"
#include "runner/campaign_runner.h"
#include "workload/collective_trace.h"
#include "analyzer.h"
#include "workloads.h"

namespace perfbench {

namespace {

using namespace skh;

/// 16 hosts x 8 rails, two tasks (8x8 GPUs at dp4/pp2, 4x8 at dp2/pp2),
/// 12 probe-visible Table-1 faults, 1 NVLink fault, 1 phantom agent,
/// static ECMP, 1 analyzer shard, default obs.
runner::CampaignConfig steady_config() {
  runner::CampaignConfig cfg;
  cfg.topology.num_hosts = 16;
  cfg.topology.rails_per_host = 8;
  cfg.topology.hosts_per_segment = 8;
  cfg.tasks = {{8, 8, 4, 2}, {4, 8, 2, 2}};
  return cfg;
}

/// The steady cluster plus control-plane churn (restarts and a migration),
/// a gray-telemetry storm through every channel fault kind (its last
/// episode an analyzer blackout), 8-way packet spray, and the collective
/// plane with a hang and a straggler per task.
runner::CampaignConfig churn_config() {
  runner::CampaignConfig cfg = steady_config();
  cfg.churn_restarts = 2;
  cfg.churn_migrations = 1;
  cfg.telemetry_faults = 7;
  cfg.hunter.engine.routing_mode = topo::RoutingMode::kSpray;
  cfg.hunter.engine.spray_ways = 8;
  cfg.collective_plane = true;
  cfg.collective_faults = 2;
  return cfg;
}

/// Issue type -> injectable component on the victim's path; the same
/// resolution runner::run_campaign applies.
sim::ComponentRef target_for(sim::IssueType type, const Endpoint& victim,
                             const topo::Topology& topo) {
  switch (sim::issue_info(type).target_kind) {
    case sim::ComponentKind::kPhysicalLink:
      return {sim::ComponentKind::kPhysicalLink,
              topo.uplink_of(victim.rnic).value()};
    case sim::ComponentKind::kPhysicalSwitch: {
      const auto host = topo.host_of(victim.rnic);
      return {sim::ComponentKind::kPhysicalSwitch,
              topo.tor_at(topo.segment_of(host), topo.rail_of(victim.rnic))
                  .value()};
    }
    case sim::ComponentKind::kRnic:
      return {sim::ComponentKind::kRnic, victim.rnic.value()};
    case sim::ComponentKind::kVSwitch:
      return {sim::ComponentKind::kVSwitch,
              topo.host_of(victim.rnic).value()};
    default:
      return {sim::ComponentKind::kHost, topo.host_of(victim.rnic).value()};
  }
}

/// A deployment ready for its first probing round.
struct Deployment {
  std::unique_ptr<core::Experiment> exp;
  std::vector<TaskId> tasks;
  std::vector<workload::TaskLayout> layouts;
  std::vector<workload::ParallelismConfig> pars;
  std::vector<sim::CollectiveFaultPlan> collective_plans;
  SimTime end;  ///< the hunter probes until here
};

/// Build the campaign's deployment exactly as runner::run_campaign does
/// (same RNG forks in the same order), with spans around the layer calls.
Deployment deploy(const runner::CampaignConfig& cfg, std::uint64_t seed,
                  Spans* spans) {
  Deployment d;
  core::ExperimentConfig ecfg;
  ecfg.topology = cfg.topology;
  ecfg.hunter = cfg.hunter;
  ecfg.seed = seed;
  ecfg.obs = cfg.obs;
  if (cfg.telemetry_faults > 0) {
    RngStream trng = RngStream(seed).fork("telemetry-plan");
    ecfg.hunter.telemetry = sim::make_telemetry_storm(
        cfg.telemetry_faults, cfg.telemetry_start, cfg.telemetry_spacing,
        cfg.telemetry_duration, trng);
  }
  {
    Scope s(spans, "setup.experiment");
    d.exp = std::make_unique<core::Experiment>(ecfg);
  }
  core::Experiment& exp = *d.exp;

  for (const auto& shape : cfg.tasks) {
    cluster::TaskRequest req;
    req.num_containers = shape.containers;
    req.gpus_per_container = shape.gpus_per_container;
    req.lifetime = cfg.task_lifetime;
    std::optional<TaskId> t;
    {
      Scope s(spans, "cluster.launch");
      t = exp.launch_task(req);
      if (t) exp.run_to_running(*t);
    }
    if (!t) continue;
    workload::ParallelismConfig par;
    par.tp = shape.gpus_per_container;
    par.pp = shape.pp;
    par.dp = shape.dp;
    auto layout = exp.layout_of(*t, par);
    {
      Scope s(spans, "setup.skeleton");
      (void)exp.apply_skeleton(*t, layout);
    }
    d.tasks.push_back(*t);
    d.layouts.push_back(std::move(layout));
    d.pars.push_back(par);
  }
  if (d.tasks.empty()) throw std::runtime_error("no task could be launched");

  Scope plan_span(spans, "setup.plans");
  RngStream frng = exp.rng().fork("fault-plan");
  SimTime cursor = exp.events().now() + cfg.warmup;
  auto random_endpoint = [&](TaskId task) -> Endpoint {
    const auto eps = exp.orchestrator().endpoints_of_task(task);
    return eps[static_cast<std::size_t>(frng.uniform_int(
        0, static_cast<std::int64_t>(eps.size()) - 1))];
  };
  for (std::size_t i = 0; i < cfg.visible_faults; ++i) {
    const auto type = cfg.issue_mix[i % cfg.issue_mix.size()];
    const TaskId task = d.tasks[static_cast<std::size_t>(frng.uniform_int(
        0, static_cast<std::int64_t>(d.tasks.size()) - 1))];
    const Endpoint victim = random_endpoint(task);
    exp.faults().inject(type, target_for(type, victim, exp.topology()),
                        cursor, cursor + cfg.fault_duration);
    cursor += cfg.fault_gap;
  }
  for (std::size_t i = 0; i < cfg.invisible_faults; ++i) {
    const auto host = static_cast<std::uint32_t>(frng.uniform_int(
        0, static_cast<std::int64_t>(cfg.topology.num_hosts) - 1));
    exp.faults().inject(sim::IssueType::kNvlinkDegradation,
                        {sim::ComponentKind::kHost, host}, cursor,
                        cursor + cfg.fault_duration);
    cursor += cfg.fault_gap;
  }
  for (std::size_t i = 0; i < cfg.phantom_agents; ++i) {
    cursor += SimTime::minutes(40);
    const Endpoint victim = random_endpoint(d.tasks[0]);
    exp.faults().inject_phantom(
        {sim::ComponentKind::kContainer, victim.container.value()}, cursor,
        cursor + SimTime::minutes(3));
    cursor += cfg.fault_gap;
  }
  if (cfg.churn_restarts > 0 || cfg.churn_migrations > 0) {
    RngStream crng = exp.rng().fork("churn-plan");
    const SimTime base = exp.events().now() + cfg.churn_start;
    for (const TaskId task : d.tasks) {
      const auto n = static_cast<std::uint32_t>(
          exp.orchestrator().task(task).containers.size());
      auto plan = sim::make_restart_storm(n, cfg.churn_restarts, base,
                                          cfg.churn_spacing, crng);
      const auto wave = sim::make_migration_wave(
          n, cfg.churn_migrations, base + cfg.churn_spacing * 0.5,
          cfg.churn_spacing, crng);
      plan.insert(plan.end(), wave.begin(), wave.end());
      exp.schedule_churn(task, plan);
    }
  }
  if (cfg.collective_plane) {
    RngStream kng = exp.rng().fork("collective-plan");
    const SimTime base = exp.events().now() + cfg.collective_start;
    for (std::size_t i = 0; i < d.tasks.size(); ++i) {
      const auto n = static_cast<std::uint32_t>(
          exp.orchestrator().task(d.tasks[i]).containers.size());
      auto plan = sim::make_collective_storm(n, cfg.collective_faults, base,
                                             cfg.collective_spacing,
                                             cfg.collective_duration, kng);
      exp.enable_collective_plane(d.tasks[i], d.layouts[i], plan,
                                  cursor + cfg.drain);
      d.collective_plans.push_back(std::move(plan));
    }
  } else {
    d.collective_plans.resize(d.tasks.size());
  }
  d.end = cursor + cfg.drain;
  return d;
}

// --- ground truth ------------------------------------------------------------

/// Does `f`'s component lie on the probe surface of `p` (its endpoints'
/// RNICs, containers and hosts, or the links and switches of its route)?
bool on_probe_surface(const sim::Fault& f, const EndpointPair& p,
                      const topo::Topology& topo) {
  const std::uint32_t idx = f.target.index;
  switch (f.target.kind) {
    case sim::ComponentKind::kRnic:
      return p.src.rnic.value() == idx || p.dst.rnic.value() == idx;
    case sim::ComponentKind::kContainer:
      return p.src.container.value() == idx || p.dst.container.value() == idx;
    case sim::ComponentKind::kHost:
    case sim::ComponentKind::kVSwitch:
      return topo.host_of(p.src.rnic).value() == idx ||
             topo.host_of(p.dst.rnic).value() == idx;
    case sim::ComponentKind::kPhysicalLink:
      for (const LinkId l : topo.route(p.src.rnic, p.dst.rnic).links) {
        if (l.value() == idx) return true;
      }
      return false;
    case sim::ComponentKind::kPhysicalSwitch:
      for (const SwitchId s : topo.route(p.src.rnic, p.dst.rnic).switches) {
        if (s.value() == idx) return true;
      }
      return false;
  }
  return false;
}

/// Does the verdict name the fault's component? An RNIC and its uplink are
/// one physical port, so either name counts for the other; an RNIC verdict
/// on the host of a repetitive-flow-offloading vSwitch fault names the same
/// incident.
bool names_target(const core::Localization& loc, const sim::Fault& f,
                  const topo::Topology& topo) {
  using K = sim::ComponentKind;
  for (const auto& c : loc.culprits) {
    if (c == f.target) return true;
    if (c.kind == K::kRnic && f.target.kind == K::kPhysicalLink &&
        topo.uplink_of(RnicId{c.index}).value() == f.target.index) {
      return true;
    }
    if (c.kind == K::kPhysicalLink && f.target.kind == K::kRnic &&
        topo.uplink_of(RnicId{f.target.index}).value() == c.index) {
      return true;
    }
    if (f.type == sim::IssueType::kRepetitiveFlowOffloading &&
        f.target.kind == K::kVSwitch && c.kind == K::kRnic &&
        topo.host_of(RnicId{c.index}).value() == f.target.index) {
      return true;
    }
  }
  return false;
}

bool probe_visible_truth(const sim::Fault& f) {
  return f.ground_truth && sim::issue_info(f.type).probe_visible;
}

struct Match {
  std::vector<char> detected;  ///< by fault id
  std::size_t detected_count = 0;
  std::size_t localized_correct = 0;
};

/// Pair each probe-plane case with the probe-visible faults active in its
/// time span (plus the scoring slack) whose component one of its pairs
/// crosses.
Match match_cases(const std::vector<core::FailureCase>& cases,
                  const std::vector<sim::Fault>& faults,
                  const topo::Topology& topo, SimTime slack) {
  Match m;
  m.detected.assign(faults.size(), 0);
  for (const auto& c : cases) {
    if (c.cls != core::CaseClass::kProbePlane) continue;
    bool matched = false;
    bool named = false;
    for (const auto& f : faults) {
      if (!probe_visible_truth(f)) continue;
      if (c.last_event < f.start || c.first_event > f.end + slack) continue;
      const bool crossed =
          std::any_of(c.pairs.begin(), c.pairs.end(),
                      [&](const EndpointPair& p) {
                        return on_probe_surface(f, p, topo);
                      });
      if (!crossed) continue;
      matched = true;
      m.detected[f.id] = 1;
      if (c.localization.found() && names_target(c.localization, f, topo)) {
        named = true;
      }
    }
    if (matched && named) ++m.localized_correct;
  }
  m.detected_count = static_cast<std::size_t>(
      std::count(m.detected.begin(), m.detected.end(), 1));
  return m;
}

/// Did the analyzer observe, while `f` was active, any pair whose probe
/// surface holds f's component? Read from the flight recorder's per-pair
/// window rings, shortly after the fault ends.
bool observed_while_active(core::Experiment& exp, const sim::Fault& f) {
  const auto& det = exp.hunter().detector();
  const auto& rec = exp.obs().recorder;
  bool seen = false;
  det.for_each_pair([&](const EndpointPair& p) {
    if (seen || !on_probe_surface(f, p, exp.topology())) return;
    for (const auto& w : rec.windows_of(det.find_handle(p), p)) {
      if (w.sent > 0 && w.start < f.end && w.end > f.start) {
        seen = true;
        return;
      }
    }
  });
  return seen;
}

// --- the campaign loop -------------------------------------------------------

struct CampaignRun {
  double run_s = 0.0;              ///< rounds plus start and finalize
  std::vector<double> round_ms;    ///< one per probing round
  std::uint64_t issued_in_blackout = 0;
  std::vector<char> observed;      ///< by fault id
};

/// Probe from hunter.start to finalize. A round is the hunter's tick plus
/// every other event up to the next tick, each run with EventQueue::step.
/// Bookkeeping for the checks, and `after_step` (traced runs), happen
/// between steps and are not timed.
CampaignRun drive(Deployment& d, const runner::CampaignConfig& cfg,
                  Spans* spans, const std::function<void()>& after_step) {
  core::Experiment& exp = *d.exp;
  auto& events = exp.events();
  auto& hunter = exp.hunter();
  auto& registry = exp.obs().registry;
  const std::uint32_t issued_id = registry.counter_id("probe.issued");
  const auto& faults = exp.faults().faults();
  const SimTime t0 = events.now();
  const std::int64_t interval_ns = cfg.hunter.probe_interval.raw_nanos();

  CampaignRun run;
  run.observed.assign(faults.size(), 0);
  // Visibility is read once every window overlapping the fault has closed,
  // while the recorder's rings still hold them.
  std::vector<std::pair<SimTime, std::uint32_t>> due;
  for (const auto& f : faults) {
    if (probe_visible_truth(f)) {
      due.emplace_back(f.end + cfg.hunter.detector.short_window +
                           cfg.hunter.probe_interval,
                       f.id);
    }
  }
  std::sort(due.begin(), due.end());
  std::size_t next_due = 0;

  Scope campaign_span(spans, "campaign.run");
  {
    Scope s(spans, "hunter.start");
    const auto c0 = Clock::now();
    hunter.start(d.end);
    run.run_s += seconds_since(c0);
  }
  std::int64_t bucket = -1;
  double bucket_s = 0.0;
  std::uint64_t issued_before = registry.counter_total(issued_id);
  for (;;) {
    bool more = false;
    double dt = 0.0;
    {
      Scope s(spans, "sim.step");
      const auto c0 = Clock::now();
      more = events.step();
      dt = seconds_since(c0);
    }
    if (!more) break;
    run.run_s += dt;
    // Past the last tick only teardown (tasks reaching their lifetime)
    // remains: part of run_s, but no probing round.
    if (events.now() <= d.end) {
      const std::int64_t b = (events.now() - t0).raw_nanos() / interval_ns;
      if (b != bucket) {
        if (bucket >= 0) run.round_ms.push_back(bucket_s * 1e3);
        bucket = b;
        bucket_s = 0.0;
      }
      bucket_s += dt;
    }

    const std::uint64_t issued_now = registry.counter_total(issued_id);
    if (hunter.analyzer_in_blackout()) {
      run.issued_in_blackout += issued_now - issued_before;
    }
    issued_before = issued_now;
    while (next_due < due.size() && events.now() >= due[next_due].first) {
      const std::uint32_t id = due[next_due].second;
      run.observed[id] = observed_while_active(exp, faults[id]) ? 1 : 0;
      ++next_due;
    }
    if (after_step) after_step();
  }
  if (bucket >= 0) run.round_ms.push_back(bucket_s * 1e3);
  {
    Scope s(spans, "hunter.finalize");
    const auto c0 = Clock::now();
    hunter.finalize();
    run.run_s += seconds_since(c0);
  }
  if (after_step) after_step();
  return run;
}

/// What one campaign left for the checks once its deployment is gone.
struct CampaignOutcome {
  core::CampaignScore score;
  Match match;
  std::uint64_t probes_issued = 0;
  std::uint64_t probes_ingested = 0;
};

/// Every per-campaign ground-truth check; returns what the driver check
/// against runner::run_campaign compares.
CampaignOutcome check_campaign(Deployment& d, const CampaignRun& run,
                               const runner::CampaignConfig& cfg,
                               Checks& checks) {
  core::Experiment& exp = *d.exp;
  const auto& cases = exp.hunter().failure_cases();
  const auto& faults = exp.faults().faults();
  const auto snap = exp.obs().registry.scrape();

  CampaignOutcome out;
  out.score = core::score_campaign(cases, exp.faults(), exp.topology(),
                                   cfg.score);
  out.match = match_cases(cases, faults, exp.topology(), cfg.score.match_slack);
  checks.expect(out.match.detected_count == out.score.detected_true,
                "matcher and score_campaign agree on detected faults");
  checks.expect(out.match.localized_correct == out.score.localized_correct,
                "matcher and score_campaign agree on localized cases");
  checks.expect(out.match.detected_count > 0, "at least one fault detected");

  SimTime first_fault = SimTime::hours(1e5);
  for (const auto& f : faults) {
    if (probe_visible_truth(f)) first_fault = std::min(first_fault, f.start);
  }
  for (const auto& c : cases) {
    if (c.cls != core::CaseClass::kProbePlane) continue;
    checks.expect(c.first_event >= first_fault,
                  "no probe-plane case opens during warm-up");
    for (const auto& f : faults) {
      if (f.type != sim::IssueType::kNvlinkDegradation) continue;
      checks.expect(c.first_event < f.start ||
                        c.first_event >= f.end + SimTime::minutes(1),
                    "the NVLink fault opens no probe-plane case");
    }
  }
  for (const auto& f : faults) {
    if (probe_visible_truth(f) && run.observed[f.id] && !out.match.detected[f.id]) {
      std::fprintf(stderr,
                   "missed: fault %u (%.*s) on component kind %u index %u, "
                   "%.0f-%.0f s, crossed by monitored pairs while active\n",
                   f.id, static_cast<int>(sim::to_string(f.type).size()),
                   sim::to_string(f.type).data(),
                   static_cast<unsigned>(f.target.kind), f.target.index,
                   f.start.to_seconds(), f.end.to_seconds());
    }
  }

  out.probes_issued = snap.counter_or("probe.issued");
  out.probes_ingested = snap.counter_or("detector.probes_ingested");
  const std::uint64_t dropped = snap.counter_or("telemetry.results_dropped");
  const std::uint64_t duplicated =
      snap.counter_or("telemetry.results_duplicated");
  checks.expect(out.probes_issued > 0, "probes issued");
  checks.expect(out.probes_ingested + run.issued_in_blackout + dropped ==
                    out.probes_issued + duplicated,
                "probes conserved from probe.issued to "
                "detector.probes_ingested");
  return out;
}

// --- traced run: calls into each layer ---------------------------------------

/// Traced runs only: calls into layers the hunter makes internally, made
/// again by the benchmark between campaign steps so that they see the live
/// state. Every probe-plane case is localized, by a localizer of its own,
/// in the step that closes it. At mid-campaign the analyzer state makes a
/// checkpoint/restore round trip (restoring the snapshot just taken leaves
/// the campaign unchanged); agents of the benchmark's own probe ten
/// minutes of rounds, from two minutes before the first fault, over the
/// pairs monitored then (the rounds cross a telemetry channel with the
/// campaign's plan and land in a result store); and the tasks' current
/// layouts feed skeleton inference and the collective plane.
class TracedCampaign {
 public:
  TracedCampaign(Deployment& d, const runner::CampaignConfig& cfg,
                 std::uint64_t seed, Spans& spans)
      : d_(d),
        cfg_(cfg),
        rng_(RngStream(seed).fork("perfbench-layers")),
        spans_(spans),
        oracle_(d.exp->faults(), rng_.fork("oracle")),
        localizer_(d.exp->topology(), d.exp->overlay(), oracle_,
                   d.exp->faults(), cfg.hunter.localizer),
        mid_(d.exp->events().now() + (d.end - d.exp->events().now()) * 0.5) {
    const auto& plan = d.exp->hunter().telemetry_channel().plan();
    if (!plan.empty()) localizer_.attach_telemetry(&plan, rng_.fork("traceroute"));
  }

  void after_step() {
    core::Experiment& exp = *d_.exp;
    for (const auto& c : exp.hunter().failure_cases()) {
      if (c.cls != core::CaseClass::kProbePlane || !c.closed) continue;
      if (!localized_.insert(c.id).second) continue;
      const std::vector<EndpointPair> pairs(c.pairs.begin(), c.pairs.end());
      Scope s(&spans_, "localize");
      (void)localizer_.localize(pairs, c.first_event);
    }
    if (!mid_done_ && exp.events().now() >= mid_) {
      mid_done_ = true;
      core::SkeletonHunter::Snapshot snap;
      {
        Scope s(&spans_, "hunter.checkpoint");
        snap = exp.hunter().checkpoint();
      }
      {
        Scope s(&spans_, "hunter.restore");
        exp.hunter().restore(snap);
      }
      probe_rounds();
      tasks_layers();
    }
  }

  static constexpr std::size_t kRounds = 600;
  std::vector<std::vector<probe::ProbeResult>> rounds;
  SimTime rounds_begin;
  std::size_t pairs = 0;
  std::uint64_t probes = 0;
  std::uint64_t steps_emitted = 0;
  std::uint64_t steps_ingested = 0;

 private:
  void probe_rounds() {
    core::Experiment& exp = *d_.exp;
    std::map<ContainerId, std::vector<EndpointPair>> by_src;
    exp.hunter().detector().for_each_pair(
        [&](const EndpointPair& p) { by_src[p.src.container].push_back(p); });
    std::vector<probe::Agent> agents;
    for (auto& [cid, list] : by_src) {
      std::set<Endpoint> own;
      std::set<ContainerId> peers;
      for (const auto& p : list) {
        own.insert(p.src);
        peers.insert(p.dst.container);
      }
      probe::Agent agent(cid, {own.begin(), own.end()});
      pairs += list.size();
      agent.set_ping_list(list);
      for (const ContainerId peer : peers) agent.activate_destination(peer);
      agents.push_back(std::move(agent));
    }
    probe::ProbeEngine engine(exp.topology(), exp.overlay(), exp.faults(),
                              rng_.fork("engine"), cfg_.hunter.engine);
    probe::TelemetryChannel channel(exp.hunter().telemetry_channel().plan(),
                                    rng_.fork("telemetry"));
    SimTime first_fault = SimTime::hours(1e5);
    for (const auto& f : exp.faults().faults()) {
      if (probe_visible_truth(f)) first_fault = std::min(first_fault, f.start);
    }
    rounds_begin = first_fault - SimTime::minutes(2);
    probe::Collector sink;
    probe::Collector store;
    rounds.assign(kRounds, {});
    for (std::size_t r = 0; r < kRounds; ++r) {
      const SimTime now =
          rounds_begin + cfg_.hunter.probe_interval * static_cast<double>(r);
      auto& round = rounds[r];
      sink.clear();
      {
        Scope s(&spans_, "probe.run_round");
        for (auto& agent : agents) {
          auto got = agent.run_round(engine, now, sink);
          round.insert(round.end(), got.begin(), got.end());
        }
      }
      probes += round.size();
      {
        Scope s(&spans_, "telemetry.transmit");
        channel.transmit(round, now);
      }
      Scope s(&spans_, "collector.ingest");
      for (const auto& result : round) store.ingest(result);
    }
  }

  /// Skeleton inference over each task's synthesized burst observations,
  /// and an hour of each task's collective step traces through a
  /// diagnoser of the benchmark's own, both on the current layouts.
  void tasks_layers() {
    core::Experiment& exp = *d_.exp;
    for (std::size_t i = 0; i < d_.tasks.size(); ++i) {
      const auto layout = exp.layout_of(d_.tasks[i], d_.pars[i]);
      const auto observations = exp.observations_for(layout);
      {
        Scope s(&spans_, "inference.infer_skeleton");
        (void)core::infer_skeleton(observations, cfg_.hunter.inference);
      }
      auto groups = workload::build_collective_groups(layout);
      collective::CollectiveDiagnoser diag(cfg_.hunter.collective);
      for (const auto& g : groups) diag.register_group(g);
      workload::CollectiveTraceGenerator gen(std::move(groups), {},
                                             rng_.fork("collective").fork(i));
      const sim::CollectiveFaultPlan plan = d_.collective_plans[i];
      gen.set_host_fault_fn([plan](std::uint32_t ci, SimTime t) {
        workload::CollectiveTraceGenerator::HostEffect e;
        e.hang = plan.hang_at(ci, t);
        e.slowdown = plan.slowdown_at(ci, t);
        return e;
      });
      std::vector<workload::StepRecord> pending;
      std::vector<collective::CollectiveVerdict> verdicts;
      for (std::uint32_t it = 0; it < 120; ++it) {
        const SimTime now = SimTime::seconds(30.0 * it);
        if (!pending.empty()) {
          Scope s(&spans_, "collective.ingest");
          diag.ingest(pending, now, verdicts);
          steps_ingested += pending.size();
        }
        Scope s(&spans_, "collective.emit");
        pending = gen.emit_iteration(it, now);
        steps_emitted += pending.size();
      }
    }
  }

  Deployment& d_;
  const runner::CampaignConfig& cfg_;
  RngStream rng_;
  Spans& spans_;
  core::DiagnosticsOracle oracle_;
  core::Localizer localizer_;
  SimTime mid_;
  bool mid_done_ = false;
  std::set<std::uint32_t> localized_;
};

/// The per-layer metrics of a traced campaign: what TracedCampaign timed
/// during it, plus its probe rounds through the analyzer at 1 and kShards
/// shards, a forensic bundle per case and registry scrapes.
void measure_layers(Deployment& d, const runner::CampaignConfig& cfg,
                    const TracedCampaign& tc, Spans& spans, Result& res) {
  core::Experiment& exp = *d.exp;
  const auto& rounds = tc.rounds;
  const std::size_t n_pairs = tc.pairs;
  const std::uint64_t probes = tc.probes;

  // The same rounds through the analyzer at 1 shard, then at kShards.
  core::DetectorConfig dcfg = cfg.hunter.detector;
  if (cfg.hunter.engine.routing_mode != topo::RoutingMode::kStaticEcmp) {
    dcfg.track_paths = true;
  }
  dcfg.expected_pairs = n_pairs;
  std::size_t max_items = 0;
  for (const auto& round : rounds) max_items = std::max(max_items, round.size());
  const RoundSource fill = [&](std::size_t r, core::ShardedDetector& det,
                               std::vector<core::ShardedDetector::BatchItem>& b) {
    for (const auto& p : rounds[r]) {
      b.push_back({det.handle_of(p.pair), p.seq, p.sent_at, p.delivered,
                   p.rtt_us, p.path_id});
    }
  };
  const EventSink ignore = [](std::span<const core::AnomalyEvent>) {};
  const SimTime flush_at =
      tc.rounds_begin +
      cfg.hunter.probe_interval * static_cast<double>(rounds.size());
  const std::size_t capacity = std::max(max_items, n_pairs);
  const ShardPass one = shard_pass(dcfg, 1, rounds.size(), capacity, {}, fill,
                                   ignore, flush_at, true, &spans);
  const ShardPass many = shard_pass(dcfg, kShards, rounds.size(), capacity, {},
                                    fill, ignore, flush_at, true, &spans);

  const auto& cases = exp.hunter().failure_cases();
  // Forensic bundles and registry scrapes on the campaign's final state.
  const auto snap = exp.obs().registry.scrape();
  for (const auto& c : cases) {
    Scope s(&spans, "forensic.bundle");
    (void)core::forensic_bundle_json(c, exp.hunter().detector(),
                                     &exp.obs().recorder, &snap);
  }
  for (int i = 0; i < 20; ++i) {
    Scope s(&spans, "obs.scrape");
    (void)obs::prometheus_text(exp.obs().registry.scrape());
  }

  auto per = [&](std::string_view name, double n, double scale) {
    return n > 0 ? spans.total_s(name) / n * scale : 0.0;
  };
  const auto counters = exp.hunter().detector_counters();
  res.add("probe.ns_per_probe", per("probe.run_round", probes, 1e9), "ns");
  res.add("probe.issued", static_cast<double>(snap.counter_or("probe.issued")),
          "count");
  res.add("probe.dropped",
          static_cast<double>(snap.counter_or("probe.dropped.overlay") +
                              snap.counter_or("probe.dropped.unreachable") +
                              snap.counter_or("probe.dropped.loss")),
          "count");
  res.add("collector.ns_per_result", per("collector.ingest", probes, 1e9),
          "ns");
  res.add("telemetry.ns_per_result", per("telemetry.transmit", probes, 1e9),
          "ns");
  res.add("telemetry.dropped",
          static_cast<double>(snap.counter_or("telemetry.results_dropped")),
          "count");
  res.add("telemetry.duplicated",
          static_cast<double>(snap.counter_or("telemetry.results_duplicated")),
          "count");
  res.add("telemetry.delayed",
          static_cast<double>(snap.counter_or("telemetry.results_delayed")),
          "count");
  add_detector_metrics(one, many, counters, res);
  res.add("localize.us_per_call",
          per("localize", static_cast<double>(spans.count("localize")), 1e6),
          "us");
  res.add("localize.calls",
          static_cast<double>(snap.counter_or("localize.calls")), "count");
  res.add("inference.ms_per_task",
          per("inference.infer_skeleton",
              static_cast<double>(spans.count("inference.infer_skeleton")), 1e3),
          "ms");
  res.add("hunter.checkpoint_ms", per("hunter.checkpoint", 1, 1e3), "ms");
  res.add("hunter.restore_ms", per("hunter.restore", 1, 1e3), "ms");
  res.add("collective.emit_ns_per_step",
          per("collective.emit", static_cast<double>(tc.steps_emitted), 1e9), "ns");
  res.add("collective.ingest_ns_per_step",
          per("collective.ingest", static_cast<double>(tc.steps_ingested), 1e9), "ns");
  res.add("forensic.bundle_ms",
          per("forensic.bundle",
              static_cast<double>(spans.count("forensic.bundle")), 1e3),
          "ms");
  res.add("obs.scrape_ms",
          per("obs.scrape", static_cast<double>(spans.count("obs.scrape")), 1e3),
          "ms");
  res.add("cluster.launch_ms",
          per("cluster.launch",
              static_cast<double>(spans.count("cluster.launch")), 1e3),
          "ms");
}

/// One timed campaign of a run, checked and torn down once it has ended.
struct Copy {
  CampaignRun run;
  CampaignOutcome outcome;
  Spans spans;  ///< traced runs only
};

/// Deploy, drive and check one campaign. `traced` (null for untraced
/// runs) times the calls into each layer during it and after it.
void run_copy(Copy& c, const runner::CampaignConfig& cfg, const Options& opt,
              Checks& checks, double* setup_s, double* rss, Result* traced) {
  Spans* sp = opt.trace ? &c.spans : nullptr;
  Deployment d;
  {
    Scope s(sp, "setup");
    d = deploy(cfg, opt.seed, sp);
  }
  if (setup_s != nullptr) *setup_s = seconds_since(process_start());
  std::unique_ptr<TracedCampaign> tc;
  if (traced != nullptr) {
    tc = std::make_unique<TracedCampaign>(d, cfg, opt.seed, c.spans);
  }
  c.run = drive(d, cfg, sp, [&] {
    if (tc) tc->after_step();
  });
  if (rss != nullptr) *rss = peak_rss_mb();
  c.outcome = check_campaign(d, c.run, cfg, checks);
  if (tc) measure_layers(d, cfg, *tc, c.spans, *traced);
}

}  // namespace

Result run_campaign_workload(const Options& opt) {
  const bool steady = opt.workload == "steady_campaign";
  const runner::CampaignConfig cfg = steady ? steady_config() : churn_config();
  Result res;
  Checks checks;

  // The first campaign runs alone: its set-up is the run's one cold set-up
  // and its peak resident set the campaign's. Then phases of `width`
  // identical campaigns at once, one per CPU the process may use (the
  // calling thread runs one; each thread is pinned to a CPU of its own),
  // the first phase with runner::run_campaign for the driver check in
  // place of one campaign. Each round counts at its fastest copy (see
  // README, "Repeats").
  //
  // --seconds sets the number of phases: as many as bring the measured
  // time nearest to it at the lengths these take on the 4-vCPU reference
  // host (the lone copy, then the slowest copy of a phase), at least one.
  // A count fixed by --seconds alone gives every run the same work.
  const double lone_s = steady ? 7.0 : 13.0;
  const double phase_s = steady ? 9.5 : 16.5;
  const auto phases = static_cast<std::size_t>(
      std::max(1L, std::lround((opt.seconds - lone_s) / phase_s)));
  const std::size_t width = std::min<std::size_t>(usable_cpus(), 4);
  std::vector<std::unique_ptr<Copy>> copies;
  copies.push_back(std::make_unique<Copy>());
  double setup_s = 0.0;
  double rss = 0.0;
  run_copy(*copies[0], cfg, opt, checks, &setup_s, &rss,
           opt.trace ? &res : nullptr);
  runner::RunResult ref;
  for (std::size_t phase = 1; phase <= phases; ++phase) {
    const std::size_t first = copies.size();
    const std::size_t n = phase == 1 ? width - 1 : width;
    for (std::size_t i = 0; i < n; ++i) {
      copies.push_back(std::make_unique<Copy>());
    }
    auto job = [&](std::size_t i) {
      if (i < copies.size()) {
        run_copy(*copies[i], cfg, opt, checks, nullptr, nullptr, nullptr);
      } else {
        ref = runner::run_campaign(cfg, opt.seed);
      }
    };
    // The calling thread takes the last job: the reference campaign in
    // the first phase, a copy in the others.
    const std::size_t last = phase == 1 ? copies.size() : copies.size() - 1;
    std::vector<std::exception_ptr> errors(last - first);
    std::vector<std::thread> threads;
    for (std::size_t i = first; i < last; ++i) {
      threads.emplace_back([&, i] {
        pin_thread(1 + i - first);
        try {
          job(i);
        } catch (...) {
          errors[i - first] = std::current_exception();
        }
      });
    }
    std::exception_ptr own;
    try {
      job(last);
    } catch (...) {
      own = std::current_exception();
    }
    for (auto& t : threads) t.join();
    if (own) std::rethrow_exception(own);
    for (const auto& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }

  FastestRepeat fastest;
  const CampaignOutcome& cold = copies[0]->outcome;
  for (const auto& c : copies) {
    double rounds_s = 0.0;
    for (double ms : c->run.round_ms) rounds_s += ms / 1e3;
    const bool same_rounds =
        fastest.add(c->run.round_ms, c->run.run_s - rounds_s);
    checks.expect(c->outcome.score == cold.score &&
                      c->outcome.probes_issued == cold.probes_issued &&
                      same_rounds,
                  "every copy reproduces the first campaign");
    std::fprintf(stderr, "campaign copy: run_s %.4f round_p50_ms %.4f\n",
                 c->run.run_s, quantile(c->run.round_ms, 0.5));
    res.attempted += c->run.round_ms.size();
  }
  checks.expect(ref.score == cold.score,
                "driver reaches run_campaign's score");
  checks.expect(ref.metrics.counter_or("probe.issued") == cold.probes_issued,
                "driver issues run_campaign's probe count");
  checks.expect(ref.metrics.counter_or("detector.probes_ingested") ==
                    cold.probes_ingested,
                "driver ingests run_campaign's probe count");
  res.correct = checks.all_passed();
  if (opt.trace) {
    res.add("trace.run_s", fastest.run_s(), "s");
    if (!opt.trace_path.empty() && !copies[0]->spans.write_json(opt.trace_path)) {
      std::fprintf(stderr, "cannot write %s\n", opt.trace_path.c_str());
    }
    return res;
  }
  res.add("setup_s", setup_s, "s");
  const double run_s = fastest.run_s();
  res.add("run_s", run_s, "s");
  res.add("probes_per_s", static_cast<double>(cold.probes_issued) / run_s,
          "probes/s");
  res.add("round_p50_ms", quantile(fastest.round_ms(), 0.5), "ms");
  res.add("round_p99_ms", quantile(fastest.round_ms(), 0.99), "ms");
  res.add("peak_rss_mb", rss, "MB");
  res.add("faults_detected", static_cast<double>(cold.match.detected_count),
          "count");
  return res;
}

}  // namespace perfbench
