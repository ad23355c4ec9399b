#include "sdcm/experiment/sweep.hpp"

#include <chrono>
#include <cmath>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "sdcm/experiment/protocol_registry.hpp"
#include "sdcm/experiment/sink.hpp"
#include "sdcm/experiment/parallel_for.hpp"
#include "sdcm/obs/profile_site.hpp"
#include "sdcm/sim/random.hpp"

namespace sdcm::experiment {

std::vector<double> SweepConfig::paper_lambda_grid() {
  std::vector<double> grid;
  for (int i = 0; i <= 18; ++i) grid.push_back(0.05 * i);
  return grid;
}

void AblationSpec::apply(ExperimentConfig& run) const {
  run.frodo.enable_pr1 = frodo_pr1;
  run.frodo.enable_srn2 = frodo_srn2;
  run.frodo.enable_pr3 = frodo_pr3;
  run.frodo.enable_pr4 = frodo_pr4;
  run.frodo.enable_pr5 = frodo_pr5;
  run.upnp.enable_pr4 = upnp_pr4;
  run.upnp.enable_pr5 = upnp_pr5;
  run.failure_placement = placement;
  run.failure_episodes = episodes;
  run.message_loss_rate = message_loss_rate;
}

std::optional<std::string> SweepConfig::validate() const {
  if (models.empty()) return "models must not be empty";
  if (lambdas.empty()) return "lambdas must not be empty";
  for (const double lambda : lambdas) {
    if (std::isnan(lambda) || lambda < 0.0 || lambda > 1.0) {
      return "every lambda must lie in [0, 1]";
    }
  }
  if (runs <= 0) return "runs must be positive";
  if (topology.users <= 0) return "users must be positive";
  if (topology.managers <= 0) return "managers must be positive";
  if (topology.registries < -1) {
    return "registries must be -1 (model default) or positive";
  }
  if (topology.registries == 0) {
    return "registries must be at least 1 when overridden "
           "(-1 keeps the model default)";
  }
  if (topology.registries > 0) {
    // A registry-count override on a registry-less model would silently
    // run the default decentralized topology and the campaign labels
    // would lie - same policy as unconsumed ablation toggles below.
    for (const SystemModel model : models) {
      if (protocol_descriptor(model).registry_nodes == 0) {
        return "registry count overridden but model '" +
               std::string(to_string(model)) + "' has no registry nodes";
      }
    }
  }
  if (ablation.episodes <= 0) return "ablation.episodes must be positive";
  if (std::isnan(ablation.message_loss_rate) ||
      ablation.message_loss_rate < 0.0 || ablation.message_loss_rate > 1.0) {
    return "ablation.message_loss_rate must lie in [0, 1]";
  }
  // Workload windows must fit the run horizon (satellite of DESIGN.md
  // section 11): a churn window or storm burst past the deadline would
  // silently never fire.
  if (const auto problem = workload.validate(ExperimentConfig{}.duration)) {
    return "workload: " + *problem;
  }
  if (shard.count == 0) return "shard count must be at least 1";
  if (shard.index >= shard.count) {
    return "shard index " + std::to_string(shard.index) +
           " out of range for " + std::to_string(shard.count) + " shards";
  }
  // A disabled recovery-technique toggle must be consumed by at least
  // one selected model, per the protocol descriptors; otherwise the
  // sweep silently runs the un-ablated protocol and the campaign labels
  // lie. Reject with a clear message instead.
  const struct {
    bool enabled;
    AblationToggle toggle;
  } toggles[] = {
      {ablation.frodo_pr1, AblationToggle::kFrodoPr1},
      {ablation.frodo_srn2, AblationToggle::kFrodoSrn2},
      {ablation.frodo_pr3, AblationToggle::kFrodoPr3},
      {ablation.frodo_pr4, AblationToggle::kFrodoPr4},
      {ablation.frodo_pr5, AblationToggle::kFrodoPr5},
      {ablation.upnp_pr4, AblationToggle::kUpnpPr4},
      {ablation.upnp_pr5, AblationToggle::kUpnpPr5},
  };
  for (const auto& entry : toggles) {
    if (entry.enabled) continue;
    bool consumed = false;
    for (const SystemModel model : models) {
      if (protocol_descriptor(model).consumes(entry.toggle)) {
        consumed = true;
        break;
      }
    }
    if (!consumed) {
      return "ablation disables '" + std::string(to_string(entry.toggle)) +
             "' but no selected model implements that technique";
    }
  }
  return std::nullopt;
}

std::uint64_t run_seed(std::uint64_t master_seed, SystemModel model,
                       std::size_t lambda_index, int run_index) {
  std::uint64_t state = master_seed;
  state ^= sim::fnv1a64(to_string(model));
  state ^= (static_cast<std::uint64_t>(lambda_index) + 1) * 0x9E3779B97F4A7C15ULL;
  state ^= (static_cast<std::uint64_t>(run_index) + 1) * 0xD1B54A32D192ED03ULL;
  return sim::splitmix64(state);
}

std::size_t shard_of(SystemModel model, std::size_t lambda_index,
                     int run_index, std::size_t shard_count) {
  if (shard_count <= 1) return 0;
  // Fixed salt, deliberately independent of the master seed: re-seeding
  // a campaign must not reshuffle which machine owns which job.
  std::uint64_t state = 0x5DC3A7D0C0FFEE01ULL;
  state ^= sim::fnv1a64(to_string(model));
  state ^= (static_cast<std::uint64_t>(lambda_index) + 1) * 0x9E3779B97F4A7C15ULL;
  state ^= (static_cast<std::uint64_t>(run_index) + 1) * 0xD1B54A32D192ED03ULL;
  return static_cast<std::size_t>(sim::splitmix64(state) %
                                  static_cast<std::uint64_t>(shard_count));
}

double CampaignSummary::runs_per_second() const noexcept {
  const double seconds = wall_seconds();
  return seconds > 0.0 ? static_cast<double>(runs_completed) / seconds : 0.0;
}

double CampaignSummary::events_per_second() const noexcept {
  const double seconds = wall_seconds();
  return seconds > 0.0 ? static_cast<double>(kernel.events_fired) / seconds
                       : 0.0;
}

double CampaignSummary::sim_speedup() const noexcept {
  const double seconds = wall_seconds();
  return seconds > 0.0 ? sim_seconds_total / seconds : 0.0;
}

SweepResult run_sweep(const SweepConfig& config) {
  if (const auto problem = config.validate()) {
    throw std::invalid_argument("run_sweep: " + *problem);
  }

  SweepResult result;
  std::vector<SweepPoint>& points = result.points;
  std::vector<metrics::StreamingSummary> summaries;
  points.reserve(config.models.size() * config.lambdas.size());
  summaries.reserve(config.models.size() * config.lambdas.size());
  for (const SystemModel model : config.models) {
    for (std::size_t li = 0; li < config.lambdas.size(); ++li) {
      SweepPoint point;
      point.model = model;
      point.lambda = config.lambdas[li];
      point.lambda_index = li;
      if (config.keep_records) {
        point.records.resize(static_cast<std::size_t>(config.runs));
      }
      points.push_back(std::move(point));
      summaries.emplace_back(
          config.runs, metrics::update_metrics::kPaperGlobalMinimumMessages,
          minimum_update_messages(model, config.topology.users,
                                  config.topology.registries));
    }
  }

  // Flatten (point, run) into this shard's job list; every run is
  // independent and carries a stable (model, lambda_index, run) identity.
  struct Job {
    std::size_t point;
    int run;
  };
  std::vector<Job> jobs;
  jobs.reserve(points.size() * static_cast<std::size_t>(config.runs));
  for (std::size_t p = 0; p < points.size(); ++p) {
    for (int r = 0; r < config.runs; ++r) {
      if (shard_of(points[p].model, points[p].lambda_index, r,
                   config.shard.count) == config.shard.index) {
        jobs.push_back(Job{p, r});
      }
    }
  }

  RunSink* const sink = config.sink;
  TraceSink* const trace_sink = config.trace_sink;
  CheckSink* const check_sink = config.check_sink;
  ProfileSink* const profile_sink = config.profile_sink;
  if (sink != nullptr) sink->on_campaign_begin(config, jobs.size());
  // Engine-side phase sites; the run-side phases live in scenario.cpp.
  const std::uint32_t sink_flush_site = obs::profile_site_id("phase.sink_flush");
  const std::uint32_t oracle_check_site =
      obs::profile_site_id("phase.oracle_check");

  // One lock serializes the streaming reduction and the sink callbacks;
  // runs take milliseconds to seconds each, so contention is noise.
  std::mutex reduce_mutex;
  const auto campaign_start = std::chrono::steady_clock::now();

  parallel_for(config.threads, jobs.size(), [&](std::size_t j) {
    const Job& job = jobs[j];
    SweepPoint& point = points[job.point];
    ExperimentConfig run_config;
    run_config.model = point.model;
    run_config.lambda = point.lambda;
    run_config.topology = config.topology;
    run_config.seed =
        run_seed(config.master_seed, point.model, point.lambda_index, job.run);
    config.ablation.apply(run_config);
    run_config.workload = config.workload;
    if (config.customize) config.customize(run_config);
    // This run's attachments: owned here, handed to their sinks below.
    std::optional<TraceSink::RunFile> trace_file;
    std::optional<check::ConsistencyOracle> oracle;
    std::optional<obs::Profiler> profiler;
    if (trace_sink != nullptr) {
      trace_file.emplace(trace_sink->directory(), point.model,
                         point.lambda_index, job.run);
      run_config.trace_writer = &trace_file->writer;
    }
    if (check_sink != nullptr) {
      run_config.oracle =
          &oracle.emplace(check_sink->oracle_config(point.model));
    }
    if (profile_sink != nullptr) run_config.profiler = &profiler.emplace();

    const auto run_start = std::chrono::steady_clock::now();
    metrics::RunRecord record = run_experiment(run_config);
    const auto wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - run_start)
            .count());

    const std::lock_guard<std::mutex> lock(reduce_mutex);
    summaries[job.point].add(job.run, record);
    ++result.summary.runs_completed;
    result.summary.run_wall_ns_total += wall_ns;
    result.summary.sim_seconds_total += sim::to_seconds(record.deadline);
    sim::accumulate(result.summary.kernel, record.kernel);
    if (sink != nullptr || trace_sink != nullptr || check_sink != nullptr ||
        profile_sink != nullptr) {
      RunEvent event;
      event.model = point.model;
      event.lambda = point.lambda;
      event.point_index = job.point;
      event.lambda_index = point.lambda_index;
      event.run = job.run;
      event.seed = run_config.seed;
      event.wall_ns = wall_ns;
      event.record = &record;
      // The engine-side sinks are themselves charged to the run's
      // profile (null-safe scopes); the profile goes last so its
      // snapshot sees those phases.
      if (sink != nullptr || trace_sink != nullptr) {
        const obs::PhaseScope flush(run_config.profiler, sink_flush_site);
        if (sink != nullptr) sink->on_run(event);
        if (trace_sink != nullptr) trace_sink->close_run(event, *trace_file);
      }
      if (check_sink != nullptr) {
        const obs::PhaseScope check(run_config.profiler, oracle_check_site);
        check_sink->add(event, oracle->finish());
      }
      if (profile_sink != nullptr) {
        profile_sink->add(event, profiler->snapshot());
      }
    }
    if (config.keep_records) {
      point.records[static_cast<std::size_t>(job.run)] = std::move(record);
    }
  });

  for (std::size_t p = 0; p < points.size(); ++p) {
    points[p].metrics = summaries[p].finalize();
    points[p].runs = summaries[p].runs_added();
  }
  result.summary.points = points.size();
  result.summary.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - campaign_start)
          .count());
  if (sink != nullptr) sink->on_campaign_end(result.summary);
  if (trace_sink != nullptr) trace_sink->flush();
  return result;
}

}  // namespace sdcm::experiment
