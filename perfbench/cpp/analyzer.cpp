#include "analyzer.h"

#include <malloc.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <thread>

#include "common/pool.h"
#include "common/rng.h"
#include "core/metrics.h"
#include "obs/context.h"

namespace perfbench {

namespace {

using namespace skh;

std::size_t heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

std::uint64_t mix_event(std::uint64_t fp, const core::AnomalyEvent& e) {
  fp = seed_mix(fp, static_cast<std::uint64_t>(e.detected_at.raw_nanos()));
  fp = seed_mix(fp, (static_cast<std::uint64_t>(e.pair.src.rnic.value()) << 32) |
                        e.pair.dst.rnic.value());
  fp = seed_mix(fp, (static_cast<std::uint64_t>(e.kind) << 32) | e.path_id);
  std::uint64_t bits = 0;
  std::memcpy(&bits, &e.score, sizeof bits);
  return seed_mix(fp, bits);
}

/// Pins each worker of `pool` to a CPU of its own, the caller's being the
/// first: one job per worker, each held until all have started, so that no
/// worker takes two.
void pin_workers(common::ThreadPool& pool) {
  const std::size_t n = pool.size();
  std::atomic<std::size_t> started{0};
  for (std::size_t i = 0; i < n; ++i) {
    pool.submit([&] {
      pin_thread(1 + started.fetch_add(1));
      while (started.load() < n) std::this_thread::yield();
    });
  }
  pool.wait();
}

}  // namespace

ShardPass shard_pass(const core::DetectorConfig& cfg, std::size_t shards,
                     std::size_t rounds, std::size_t max_items,
                     const OnReady& on_ready, const RoundSource& fill, const EventSink& sink,
                     SimTime flush_at, bool attach_obs, Spans* spans) {
  ShardPass pass;
  pass.fingerprint = 0x5348415244ULL;
  std::vector<core::ShardedDetector::BatchItem> batch;
  batch.reserve(max_items);
  std::vector<core::AnomalyEvent> events;
  events.reserve(4096);
  std::vector<std::uint32_t> fired;
  fired.reserve(max_items);
  std::vector<obs::WindowRecord> windows;
  std::unique_ptr<obs::Context> ctx;
  if (attach_obs) {
    ctx = std::make_unique<obs::Context>();
    windows.reserve(2 * max_items);
  }
  std::unique_ptr<common::ThreadPool> pool;
  if (shards > 1) {
    pool = std::make_unique<common::ThreadPool>(shards);
    pin_workers(*pool);
  }
  pass.round_ms.reserve(rounds);

  const std::size_t heap0 = heap_bytes();
  core::ShardedDetector det(cfg, shards, pool.get());
  if (ctx) det.attach_obs(ctx.get());
  det.reserve_pairs(max_items);
  if (on_ready) on_ready(det);
  const char* span_name = shards > 1 ? "detector.ingest_batch.n"
                                     : "detector.ingest_batch.1";
  for (std::size_t r = 0; r < rounds; ++r) {
    batch.clear();
    fill(r, det, batch);
    // Telling window-closing rounds apart costs a counters() sweep over
    // every pair, so only passes with obs attached (traced runs) do it.
    const std::uint64_t closed_before =
        ctx ? det.counters().short_windows_closed : 0;
    double dt = 0.0;
    {
      Scope s(spans, span_name);
      const auto c0 = Clock::now();
      det.ingest_batch(batch, events, fired);
      dt = seconds_since(c0);
    }
    pass.run_s += dt;
    pass.probes += batch.size();
    pass.round_ms.push_back(dt * 1e3);
    for (const auto& e : events) pass.fingerprint = mix_event(pass.fingerprint, e);
    sink(events);
    if (ctx) {
      if (det.counters().short_windows_closed == closed_before) {
        pass.quiet_s += dt;
        pass.quiet_probes += batch.size();
      } else {
        pass.close_ms.push_back(dt * 1e3);
      }
      windows.clear();
      det.drain_window_log(windows);
    }
  }
  const std::size_t heap1 = heap_bytes();
  if (det.pair_count() > 0 && heap1 > heap0) {
    pass.bytes_per_pair = static_cast<double>(heap1 - heap0) /
                          static_cast<double>(det.pair_count());
  }
  std::vector<core::AnomalyEvent> tail;
  {
    Scope s(spans, "detector.flush");
    const auto c0 = Clock::now();
    tail = det.flush(flush_at);
    pass.flush_s = seconds_since(c0);
    pass.run_s += pass.flush_s;
  }
  for (const auto& e : tail) pass.fingerprint = mix_event(pass.fingerprint, e);
  sink(tail);
  pass.counters = det.counters();
  if (ctx) {
    det.sync_obs();
    pass.merge_stall_items =
        ctx->registry.scrape().counter_or("detector.shard.merge_stall_items");
  }
  return pass;
}

void add_detector_metrics(const ShardPass& one, const ShardPass& many,
                          const core::DetectorCounters& counters,
                          Result& res) {
  const double r1 = quantile(one.round_ms, 0.5);
  const double rn = quantile(many.round_ms, 0.5);
  res.add("detector.ns_per_probe",
          one.quiet_probes > 0
              ? one.quiet_s / static_cast<double>(one.quiet_probes) * 1e9
              : 0.0,
          "ns");
  res.add("detector.close_round_ms", quantile(one.close_ms, 0.5), "ms");
  res.add("detector.windows_closed",
          static_cast<double>(counters.short_windows_closed +
                              counters.long_windows_closed),
          "count");
  res.add("detector.lof_scored",
          static_cast<double>(counters.lof_fast_path + counters.lof_fallback),
          "count");
  res.add("detector.lof_fast_path_ratio", core::lof_fast_path_ratio(counters),
          "ratio");
  res.add("detector.bytes_per_pair", one.bytes_per_pair, "B");
  res.add("shard.round_ms_1", r1, "ms");
  res.add("shard.round_ms_n", rn, "ms");
  res.add("shard.scaling", rn > 0.0 ? r1 / rn : 0.0, "x");
  res.add("detector.shard.merge_stall_items",
          static_cast<double>(many.merge_stall_items), "count");
}

}  // namespace perfbench
