// One pass of probe rounds through a ShardedDetector, timed round by round.
// Shared by the analyzer replay and by the campaigns' traced runs.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/sharded_detector.h"
#include "report.h"

namespace perfbench {

/// Analyzer shards of the replay and of the traced runs' shard comparison:
/// a pool of two workers plus the waiting caller fits a 4-thread host.
inline constexpr std::size_t kShards = 2;

struct ShardPass {
  std::vector<double> round_ms;  ///< one ingest_batch call per round
  // With obs attached only: rounds that closed a short window, and the
  // summed time and probes of the other rounds.
  std::vector<double> close_ms;
  double quiet_s = 0.0;
  std::uint64_t quiet_probes = 0;
  std::uint64_t probes = 0;
  double run_s = 0.0;            ///< every round, then flush
  double flush_s = 0.0;
  /// Heap the detector holds after the last round, per mapped pair.
  double bytes_per_pair = 0.0;
  std::uint64_t merge_stall_items = 0;  ///< 0 unless obs is attached
  std::uint64_t fingerprint = 0;        ///< every event, in emission order
  skh::core::DetectorCounters counters{};
};

/// Runs once the detector is built, before the first round.
using OnReady = std::function<void(skh::core::ShardedDetector& det)>;
/// Fills the batch of round `r` (handles resolved on `det`).
using RoundSource =
    std::function<void(std::size_t r, skh::core::ShardedDetector& det,
                       std::vector<skh::core::ShardedDetector::BatchItem>&)>;
/// Receives the events of each round, then those of the flush.
using EventSink = std::function<void(std::span<const skh::core::AnomalyEvent>)>;

/// Run `rounds` rounds at `shards` shards (a pool of `shards` workers when
/// above 1; the caller only waits on it), then flush at `flush_at`.
/// `max_items` bounds the round size and sizes the detector's pair table. With
/// `attach_obs` the detector records into a private obs context, as in a
/// campaign, and its closed-window log is drained after every round.
[[nodiscard]] ShardPass shard_pass(const skh::core::DetectorConfig& cfg,
                                   std::size_t shards, std::size_t rounds,
                                   std::size_t max_items,
                                   const OnReady& on_ready,
                                   const RoundSource& fill,
                                   const EventSink& sink, skh::SimTime flush_at,
                                   bool attach_obs, Spans* spans);

/// The detector.* and shard.* per-layer metrics: detector timings from the
/// 1-shard pass, the shard comparison from both, counts from `counters`.
void add_detector_metrics(const ShardPass& one, const ShardPass& many,
                          const skh::core::DetectorCounters& counters,
                          Result& res);

}  // namespace perfbench
