#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "sdcm/check/oracle.hpp"
#include "sdcm/experiment/profile.hpp"
#include "sdcm/experiment/sweep.hpp"
#include "sdcm/obs/trace_jsonl.hpp"

namespace sdcm::experiment {

/// One completed run, as delivered to RunSink::on_run. The record
/// pointer is valid only for the duration of the callback; sinks that
/// need it later must copy.
struct RunEvent {
  SystemModel model{};
  double lambda = 0.0;
  /// Index of the (model, lambda) point in the campaign's canonical
  /// order (model-major, lambda-minor) - identical across shards.
  std::size_t point_index = 0;
  std::size_t lambda_index = 0;
  /// Run index within the point.
  int run = 0;
  std::uint64_t seed = 0;
  /// Wall clock of this single run.
  std::uint64_t wall_ns = 0;
  const metrics::RunRecord* record = nullptr;
};

/// Observer of a streaming sweep. The engine serializes every callback
/// under one lock (calls arrive on worker threads, but never two at
/// once), so implementations need no locking of their own; they must
/// only avoid blocking for long, since they stall every worker's result
/// path.
class RunSink {
 public:
  virtual ~RunSink() = default;

  /// Once, before the first run. `total_runs` is the number of runs
  /// this process will execute (after shard selection).
  virtual void on_campaign_begin(const SweepConfig& config,
                                 std::uint64_t total_runs);
  /// Once per completed run.
  virtual void on_run(const RunEvent& event) = 0;
  /// Once, after the last run.
  virtual void on_campaign_end(const CampaignSummary& summary);
};

// The three sinks below are not RunSinks: each run needs its own trace
// file, oracle or profiler, so run_sweep's worker creates that object
// before the run, owns it for the run, and hands it back under the
// engine's result lock after the regular sink's on_run. Wire them via
// SweepConfig::{trace_sink, check_sink, profile_sink}. Like every
// RunSink they need no locking, and their results are read after
// run_sweep returns (or from a RunSink callback, under the same lock).

/// Streams every run's full trace to its own JSONL file under a
/// directory, plus a manifest.jsonl indexing the files with their
/// fingerprints.
class TraceSink final {
 public:
  /// One run's open trace file; its writer is the run's
  /// ExperimentConfig::trace_writer.
  struct RunFile {
    /// Opens `directory`/run_file_name(model, lambda_index, run); throws
    /// std::runtime_error when the file cannot be opened.
    RunFile(const std::string& directory, SystemModel model,
            std::size_t lambda_index, int run);
    RunFile(const RunFile&) = delete;
    RunFile& operator=(const RunFile&) = delete;

    std::string name;
    std::ofstream out;
    obs::JsonlTraceWriter writer;
  };

  /// Creates `directory` (and parents) if needed; throws
  /// std::runtime_error when it cannot be created or written.
  explicit TraceSink(std::string directory);

  /// Stable per-run file name, e.g. "trace_FRODO-3party_l06_r007.jsonl".
  static std::string run_file_name(SystemModel model,
                                   std::size_t lambda_index, int run);

  /// Flushes the finished run's file and appends its manifest line.
  void close_run(const RunEvent& event, RunFile& file);
  /// Flushes the manifest; run_sweep calls it after the last run.
  void flush();

  [[nodiscard]] const std::string& directory() const noexcept {
    return directory_;
  }
  /// Trace records streamed to disk so far (all finished runs).
  [[nodiscard]] std::uint64_t records_written() const noexcept {
    return records_;
  }
  /// Bytes flushed to finished trace files so far.
  [[nodiscard]] std::uint64_t bytes_flushed() const noexcept {
    return bytes_;
  }

 private:
  std::string directory_;
  std::ofstream manifest_;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_ = 0;
};

/// Runs the consistency oracle over every run of a campaign and folds
/// each run's report into the campaign verdict. Convergence is never
/// required for UPnP runs (the model legitimately strands users whose
/// subscription lapsed mid-outage).
class CheckSink final {
 public:
  /// One oracle violation, tagged with the run it came from.
  struct CampaignViolation {
    SystemModel model{};
    double lambda = 0.0;
    int run = 0;
    std::uint64_t seed = 0;
    check::Violation violation;
  };

  explicit CheckSink(check::OracleConfig base = {});

  /// The configuration of one run's oracle: the base config, demanding
  /// convergence only where `model`'s protocol promises it.
  [[nodiscard]] check::OracleConfig oracle_config(SystemModel model) const;

  /// Folds the finished run's oracle report into the campaign verdict.
  void add(const RunEvent& event, check::OracleReport report);

  [[nodiscard]] std::uint64_t runs_checked() const noexcept {
    return runs_checked_;
  }
  [[nodiscard]] std::uint64_t violation_total() const noexcept {
    return violation_total_;
  }
  /// Stored violations (each run caps its own; see OracleConfig).
  [[nodiscard]] const std::vector<CampaignViolation>& violations()
      const noexcept {
    return violations_;
  }
  /// Human-readable campaign verdict, one line per stored violation.
  void write_report(std::ostream& out) const;

 private:
  check::OracleConfig base_;
  std::vector<CampaignViolation> violations_;
  std::uint64_t runs_checked_ = 0;
  std::uint64_t violation_total_ = 0;
};

/// Aggregates every run's wall-clock profile (obs::Profiler) into a
/// per-model CampaignProfile. The engine adds each run's snapshot after
/// every other sink, so the engine-side phases (phase.sink_flush,
/// phase.oracle_check) are already recorded in it.
class ProfileSink final {
 public:
  ProfileSink() = default;

  /// Folds the finished run's profile into the campaign aggregate.
  void add(const RunEvent& event, const obs::RunProfile& profile);

  [[nodiscard]] std::uint64_t runs_profiled() const noexcept {
    return runs_profiled_;
  }
  [[nodiscard]] const CampaignProfile& campaign() const noexcept {
    return campaign_;
  }

 private:
  CampaignProfile campaign_;
  std::uint64_t runs_profiled_ = 0;
};

/// Live progress on a stream (stderr in sdcm_sweep): done/total,
/// runs/sec and ETA, redrawn in place at most every `min_interval`.
class ProgressSink final : public RunSink {
 public:
  explicit ProgressSink(
      std::ostream& out,
      std::chrono::milliseconds min_interval = std::chrono::milliseconds(200));

  /// Also report `sink`'s live backlog (records / bytes streamed to
  /// disk) on every redraw. Non-owning; may be null to detach.
  void watch_trace_sink(const TraceSink* sink) noexcept {
    trace_sink_ = sink;
  }

  void on_campaign_begin(const SweepConfig& config,
                         std::uint64_t total_runs) override;
  void on_run(const RunEvent& event) override;
  void on_campaign_end(const CampaignSummary& summary) override;

 private:
  void draw(bool final_line);

  std::ostream& out_;
  std::chrono::milliseconds min_interval_;
  std::chrono::steady_clock::time_point start_{};
  std::chrono::steady_clock::time_point last_draw_{};
  std::uint64_t done_ = 0;
  std::uint64_t total_ = 0;
  const TraceSink* trace_sink_ = nullptr;
};

/// The machine-readable campaign log: one JSON object per line. The
/// first line is a campaign header (models, lambdas, runs, users, seed,
/// shard); every following line is one run with its full RunRecord.
/// Numbers round-trip exactly (%.17g doubles, decimal uint64s), which
/// is what lets shard logs merge into the bit-identical unsharded
/// result.
class JsonlSink final : public RunSink {
 public:
  explicit JsonlSink(std::ostream& out);

  void on_campaign_begin(const SweepConfig& config,
                         std::uint64_t total_runs) override;
  void on_run(const RunEvent& event) override;

 private:
  std::ostream& out_;
};

/// Fans every callback out to a list of child sinks, in order.
class MultiSink final : public RunSink {
 public:
  MultiSink() = default;

  /// Registers a child (non-owning; ignored when null).
  void add(RunSink* sink);

  void on_campaign_begin(const SweepConfig& config,
                         std::uint64_t total_runs) override;
  void on_run(const RunEvent& event) override;
  void on_campaign_end(const CampaignSummary& summary) override;

 private:
  std::vector<RunSink*> sinks_;
};

/// The `sdcm_campaign` version JsonlSink writes, and the only one the
/// reader accepts. Version 2 logs come from the single subscriber-only
/// multicast path; version 1 logs may hold any of three older multicast
/// RNG streams, so nothing reads them.
inline constexpr std::uint64_t kCampaignLogVersion = 2;

/// The campaign header line of a JSONL log.
struct CampaignHeader {
  std::vector<SystemModel> models;
  std::vector<double> lambdas;
  int runs = 0;
  int users = 0;
  int managers = 1;
  int registries = -1;
  std::uint64_t seed = 0;
  WorkloadKind workload = WorkloadKind::kStatic;
  std::size_t shard_index = 0;
  std::size_t shard_count = 1;
};

/// One parsed run line of a JSONL log (owning copy of the record).
struct CampaignRun {
  std::size_t point_index = 0;
  SystemModel model{};
  double lambda = 0.0;
  std::size_t lambda_index = 0;
  int run = 0;
  std::uint64_t seed = 0;
  std::uint64_t wall_ns = 0;
  metrics::RunRecord record;
};

/// Parses the first line of a JSONL log. Returns std::nullopt with a
/// message on `error` when the line is not a kCampaignLogVersion
/// campaign header, or when an integer does not fit its field.
std::optional<CampaignHeader> parse_jsonl_header(std::string_view line,
                                                 std::string& error);

/// Parses one run line of a JSONL log; an integer that does not fit its
/// field is an error, as in parse_jsonl_header.
std::optional<CampaignRun> parse_jsonl_run(std::string_view line,
                                           std::string& error);

/// Merges shard logs (each produced by JsonlSink over the same campaign
/// config) back into the full sweep: every header must parse and agree
/// on (models, lambdas, runs, topology, seed, workload), every (point,
/// run) must appear exactly once across the inputs, and the rebuilt
/// summaries are bit-identical to the unsharded run_sweep result. On
/// failure returns std::nullopt with a message on `error`.
std::optional<SweepResult> merge_jsonl(std::span<std::istream* const> shards,
                                       std::string& error);

/// Convenience overload reading each path (use "-" for stdin).
std::optional<SweepResult> merge_jsonl_files(
    std::span<const std::string> paths, std::string& error);

}  // namespace sdcm::experiment
