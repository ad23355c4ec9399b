#pragma once

#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sdcm/experiment/scenario.hpp"
#include "sdcm/metrics/streaming.hpp"
#include "sdcm/metrics/update_metrics.hpp"

namespace sdcm::experiment {

class RunSink;      // sink.hpp
class TraceSink;    // sink.hpp
class CheckSink;    // sink.hpp
class ProfileSink;  // sink.hpp

/// The declarative per-run overrides of the paper's ablation studies:
/// every recovery-technique toggle (Table 4), the failure-episode
/// placement and count (DESIGN.md decision 1) and the companion study's
/// message-loss rate. The engine applies the spec to every run before
/// the `customize` escape hatch, so ablation campaigns are plain data -
/// they serialize, compare and log - instead of opaque std::functions.
struct AblationSpec {
  bool frodo_pr1 = true;
  bool frodo_srn2 = true;
  bool frodo_pr3 = true;
  bool frodo_pr4 = true;
  bool frodo_pr5 = true;
  bool upnp_pr4 = true;
  bool upnp_pr5 = true;
  net::FailurePlacement placement = net::FailurePlacement::kFitInside;
  int episodes = 1;
  /// Independent per-delivery loss probability; 0 in the paper's
  /// interface-failure experiments.
  double message_loss_rate = 0.0;

  void apply(ExperimentConfig& run) const;
};

/// Deterministic campaign partition: shard `index` of `count` executes
/// the jobs whose stable (model, lambda index, run) key hashes to it,
/// so a campaign splits across machines and the JSONL shard logs merge
/// back into the identical unsharded result (sink.hpp, merge_jsonl).
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;

  [[nodiscard]] bool is_sharded() const noexcept { return count > 1; }
};

/// A full Section 5 experiment: every selected system model simulated at
/// every failure rate, X runs per point.
struct SweepConfig {
  std::vector<SystemModel> models{std::begin(kAllModels),
                                  std::end(kAllModels)};
  /// Failure rates; default 0.00 .. 0.90 in 0.05 steps (19 points).
  std::vector<double> lambdas = paper_lambda_grid();
  /// Runs per (model, lambda) point. The paper simulates 30 logs per
  /// point; override with the SDCM_RUNS environment variable in benches.
  int runs = 30;
  /// Node population applied to every run (U Users / M Managers / R
  /// registries; see TopologySpec). The default is the paper topology.
  TopologySpec topology{};
  std::uint64_t master_seed = 20060425;  // IPDPS 2006
  /// 0 = hardware concurrency.
  std::size_t threads = 0;
  /// Typed ablation overrides, applied to every run by the engine.
  AblationSpec ablation;
  /// Typed workload applied to every run (churn/storm/saturation;
  /// kStatic = the plain paper scenario). Applied alongside `ablation`,
  /// before `customize`.
  WorkloadSpec workload;
  /// Escape hatch for knobs outside AblationSpec (lease periods, poll
  /// modes, SRN1 retries, ...). Applied after `ablation`; called
  /// concurrently from worker threads, so capture by value or const ref.
  std::function<void(ExperimentConfig&)> customize;
  /// Retain every RunRecord in SweepPoint::records. Off by default:
  /// the streaming aggregation makes per-point memory independent of
  /// the run count, which buffering records would undo.
  bool keep_records = false;
  /// Which slice of the campaign this process executes.
  ShardSpec shard;
  /// Observer notified once per completed run (non-owning; may be
  /// null). See sink.hpp for the built-in sinks.
  RunSink* sink = nullptr;
  /// Streams every run's full trace to per-run JSONL files (non-owning;
  /// may be null). The worker running each job opens that run's file,
  /// installs its writer as the run's trace_writer, and hands it back
  /// after the regular `sink`'s on_run.
  TraceSink* trace_sink = nullptr;
  /// Runs the consistency oracle over every run (non-owning; may be
  /// null). Each worker owns its run's oracle like trace_sink's file and
  /// hands the report back after the regular `sink`'s on_run. Composes
  /// with trace_sink - the oracle tees the trace stream downstream.
  CheckSink* check_sink = nullptr;
  /// Profiles every run's wall clock (non-owning; may be null). Each
  /// worker gives its run its own obs::Profiler (installed as
  /// ExperimentConfig::profiler), times the engine's sink/oracle
  /// callbacks into the run's phase.sink_flush / phase.oracle_check,
  /// and then folds the profile into the campaign aggregate. Per-event
  /// attribution needs a -DSDCM_PROFILE=ON build; phase timers work in
  /// every build.
  ProfileSink* profile_sink = nullptr;

  static std::vector<double> paper_lambda_grid();

  /// std::nullopt when the config is runnable; otherwise a message
  /// naming the first problem (empty models/lambdas, non-positive
  /// runs/users/managers, a registry override on a registry-less
  /// model, lambda outside [0, 1], malformed shard).
  [[nodiscard]] std::optional<std::string> validate() const;
};

struct SweepPoint {
  SystemModel model{};
  double lambda = 0.0;
  /// Index of `lambda` in SweepConfig::lambdas - part of the stable
  /// (model, lambda_index, run) identity used for seeding and sharding.
  std::size_t lambda_index = 0;
  /// Runs executed by this process (less than SweepConfig::runs when
  /// sharded; a merged campaign reports the full count).
  int runs = 0;
  metrics::MetricsSummary metrics;
  /// Raw per-run records, only when SweepConfig::keep_records is set.
  /// Sized to SweepConfig::runs; in sharded sweeps only this shard's
  /// slots are filled.
  std::vector<metrics::RunRecord> records;
};

/// Whole-campaign telemetry accumulated while the sweep streams.
struct CampaignSummary {
  std::uint64_t runs_completed = 0;
  std::uint64_t points = 0;
  /// Wall clock of the whole campaign (thread-parallel time).
  std::uint64_t wall_ns = 0;
  /// Sum of per-run wall clocks (total CPU-ish work).
  std::uint64_t run_wall_ns_total = 0;
  /// Simulated seconds covered (sum of run horizons).
  double sim_seconds_total = 0.0;
  /// Kernel counter totals across every run (peak_heap_size is a max).
  sim::KernelStats kernel;

  [[nodiscard]] double wall_seconds() const noexcept {
    return static_cast<double>(wall_ns) / 1e9;
  }
  [[nodiscard]] double runs_per_second() const noexcept;
  [[nodiscard]] double events_per_second() const noexcept;
  /// Simulated seconds per wall second - how much faster than real time
  /// the campaign ran.
  [[nodiscard]] double sim_speedup() const noexcept;
};

/// What run_sweep returns: the per-point summaries plus the campaign
/// telemetry. Converts to a span of points so the report emitters and
/// bench helpers keep reading it as "the points".
struct SweepResult {
  std::vector<SweepPoint> points;
  CampaignSummary summary;

  [[nodiscard]] auto begin() const noexcept { return points.begin(); }
  [[nodiscard]] auto end() const noexcept { return points.end(); }
  [[nodiscard]] std::size_t size() const noexcept { return points.size(); }
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator std::span<const SweepPoint>() const noexcept { return points; }
};

/// Deterministic: the run seed depends only on (master_seed, model,
/// lambda index, run index), so results are stable across thread counts
/// and shard assignments.
std::uint64_t run_seed(std::uint64_t master_seed, SystemModel model,
                       std::size_t lambda_index, int run_index);

/// Stable shard assignment of one job. Depends only on the job's
/// (model, lambda_index, run_index) key and the shard count - not on
/// the master seed, the models order, or any other config - so every
/// shard of a campaign agrees on the partition.
std::size_t shard_of(SystemModel model, std::size_t lambda_index,
                     int run_index, std::size_t shard_count);

/// Executes the (shard of the) sweep on `threads` threads (see
/// parallel_for), streaming each completed run into the per-point
/// StreamingSummary aggregation and the optional sinks. Points are
/// ordered by (model, lambda) exactly as configured. Throws
/// std::invalid_argument when validate() fails. A run that throws does
/// not stop the others; it reaches no sink, and the first such
/// exception is rethrown after every other run has finished.
SweepResult run_sweep(const SweepConfig& config);

}  // namespace sdcm::experiment
