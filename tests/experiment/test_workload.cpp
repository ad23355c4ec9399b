// The workload engine: deterministic plan expansion, validation against
// the run horizon, and end-to-end behaviour (fingerprint determinism,
// shard-merge invariance, saturation counters, storm mitigation).

#include "sdcm/experiment/workload.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "sdcm/experiment/scenario.hpp"
#include "sdcm/experiment/sink.hpp"
#include "sdcm/experiment/sweep.hpp"

namespace sdcm::experiment {
namespace {

using sim::seconds;

WorkloadTopology paper_topology() {
  WorkloadTopology topo;
  for (sim::NodeId user = 11; user <= 15; ++user) topo.users.push_back(user);
  topo.manager = 10;
  topo.announcers = {10};
  return topo;
}

bool same_episodes(const std::vector<net::FailureEpisode>& a,
                   const std::vector<net::FailureEpisode>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].node != b[i].node || a[i].mode != b[i].mode ||
        a[i].start != b[i].start || a[i].duration != b[i].duration) {
      return false;
    }
  }
  return true;
}

TEST(WorkloadNames, RoundTripThroughTheRegistry) {
  for (const WorkloadKind kind :
       {WorkloadKind::kStatic, WorkloadKind::kChurn, WorkloadKind::kStorm,
        WorkloadKind::kSaturation}) {
    const auto parsed = workload_from_name(to_string(kind));
    ASSERT_TRUE(parsed.has_value()) << to_string(kind);
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(workload_from_name("thundering-herd").has_value());
}

TEST(WorkloadPlanning, SameSeedYieldsTheIdenticalPlan) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kChurn;
  const auto topo = paper_topology();
  sim::Random rng_a(42), rng_b(42), rng_c(43);
  const WorkloadPlan a = plan_workload(spec, topo, seconds(5400), rng_a);
  const WorkloadPlan b = plan_workload(spec, topo, seconds(5400), rng_b);
  const WorkloadPlan c = plan_workload(spec, topo, seconds(5400), rng_c);
  EXPECT_EQ(a.events, b.events);
  EXPECT_TRUE(same_episodes(a.episodes, b.episodes));
  EXPECT_EQ(a.departed, b.departed);
  EXPECT_NE(a.events, c.events);  // a different stream re-rolls the draws
}

TEST(WorkloadPlanning, ChurnPairsLifecycleEventsWithOutageEpisodes) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kChurn;
  const auto topo = paper_topology();
  sim::Random rng(7);
  const WorkloadPlan plan = plan_workload(spec, topo, seconds(5400), rng);

  // Every cycle is one depart + one rejoin + one kBoth episode covering
  // the absence, drawn inside the churn window.
  ASSERT_FALSE(plan.events.empty());
  EXPECT_TRUE(plan.departed.empty());
  std::size_t departs = 0, rejoins = 0;
  for (const WorkloadEvent& event : plan.events) {
    if (event.action == WorkloadAction::kDepart) ++departs;
    if (event.action == WorkloadAction::kRejoin) ++rejoins;
    EXPECT_GE(event.at, spec.churn.window_start);
    EXPECT_LT(event.at, seconds(5400));
  }
  EXPECT_EQ(departs, rejoins);
  EXPECT_EQ(plan.episodes.size(), departs);
  EXPECT_TRUE(std::is_sorted(
      plan.events.begin(), plan.events.end(),
      [](const WorkloadEvent& a, const WorkloadEvent& b) { return a.at < b.at; }));
  for (const net::FailureEpisode& ep : plan.episodes) {
    EXPECT_EQ(ep.mode, net::FailureMode::kBoth);
    EXPECT_GT(ep.duration, 0);
    EXPECT_LT(ep.end(), seconds(5400));
    // The episode starts exactly at its node's depart event.
    const bool matched = std::any_of(
        plan.events.begin(), plan.events.end(), [&](const WorkloadEvent& e) {
          return e.action == WorkloadAction::kDepart && e.node == ep.node &&
                 e.at == ep.start;
        });
    EXPECT_TRUE(matched);
  }
}

TEST(WorkloadPlanning, PermanentLeaversAreReportedDeparted) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kChurn;
  spec.churn.permanent_leave_fraction = 1.0;
  const auto topo = paper_topology();
  sim::Random rng(7);
  const WorkloadPlan plan = plan_workload(spec, topo, seconds(5400), rng);

  ASSERT_EQ(plan.departed.size(), topo.users.size());
  ASSERT_EQ(plan.events.size(), topo.users.size());
  ASSERT_EQ(plan.episodes.size(), topo.users.size());
  for (const WorkloadEvent& event : plan.events) {
    EXPECT_EQ(event.action, WorkloadAction::kDepart);
  }
  for (const net::FailureEpisode& ep : plan.episodes) {
    EXPECT_EQ(ep.end(), seconds(5400));  // silent to the horizon
  }
}

TEST(WorkloadPlanning, StormBurstsCoverEveryAnnouncerOnTheGrid) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kStorm;
  WorkloadTopology topo = paper_topology();
  topo.announcers = {1, 2};
  sim::Random rng(7);
  const WorkloadPlan plan = plan_workload(spec, topo, seconds(5400), rng);

  ASSERT_EQ(plan.events.size(),
            static_cast<std::size_t>(spec.storm.bursts) *
                static_cast<std::size_t>(spec.storm.announcements_per_burst) *
                2);
  EXPECT_TRUE(plan.episodes.empty());
  for (const WorkloadEvent& event : plan.events) {
    EXPECT_EQ(event.action, WorkloadAction::kAnnounce);
    // No jitter: every burst lands exactly on the synchronized grid.
    const auto offset = event.at - spec.storm.first_burst;
    EXPECT_EQ(offset % spec.storm.burst_spacing, 0);
  }
}

TEST(WorkloadPlanning, MitigationJitterStaggersTheHerd) {
  WorkloadSpec spec;
  spec.kind = WorkloadKind::kStorm;
  spec.storm.mitigation_jitter = seconds(30);
  WorkloadTopology topo = paper_topology();
  topo.announcers = {1, 2};
  sim::Random rng(7);
  const WorkloadPlan plan = plan_workload(spec, topo, seconds(5400), rng);

  bool any_staggered = false;
  for (const WorkloadEvent& event : plan.events) {
    const auto offset =
        (event.at - spec.storm.first_burst) % spec.storm.burst_spacing;
    EXPECT_GE(offset, 0);
    EXPECT_LE(offset, spec.storm.mitigation_jitter);
    if (offset != 0) any_staggered = true;
  }
  EXPECT_TRUE(any_staggered);
}

TEST(WorkloadValidation, RejectsPlansThatOutliveTheRun) {
  WorkloadSpec churn;
  churn.kind = WorkloadKind::kChurn;
  EXPECT_FALSE(churn.validate(seconds(5400)).has_value());
  churn.churn.window_end = seconds(5400);  // rejoin lag needs headroom
  EXPECT_TRUE(churn.validate(seconds(5400)).has_value());

  WorkloadSpec storm;
  storm.kind = WorkloadKind::kStorm;
  EXPECT_FALSE(storm.validate(seconds(5400)).has_value());
  storm.storm.burst_spacing = seconds(800);  // last burst at 5800 s
  EXPECT_TRUE(storm.validate(seconds(5400)).has_value());

  WorkloadSpec saturation;
  saturation.kind = WorkloadKind::kSaturation;
  EXPECT_FALSE(saturation.validate(seconds(5400)).has_value());
  saturation.saturation.link_rate_hz = 0.0;
  EXPECT_TRUE(saturation.validate(seconds(5400)).has_value());

  WorkloadSpec inert;  // kStatic never fails validation
  EXPECT_FALSE(inert.validate(seconds(1)).has_value());
}

TEST(WorkloadValidation, SweepConfigRejectsAnOverlongWorkload) {
  SweepConfig config;
  config.workload.kind = WorkloadKind::kChurn;
  config.workload.churn.window_end = seconds(6000);
  const auto problem = config.validate();
  ASSERT_TRUE(problem.has_value());
  EXPECT_NE(problem->find("workload"), std::string::npos);
  EXPECT_THROW((void)run_sweep(config), std::invalid_argument);
}

TEST(WorkloadRuns, FingerprintsAreDeterministicAndKindSensitive) {
  ExperimentConfig config;
  config.model = SystemModel::kJiniOneRegistry;
  config.lambda = 0.2;
  config.seed = 11;
  config.record_trace = true;

  const auto fingerprint = [&](WorkloadKind kind) {
    ExperimentConfig run = config;
    run.workload.kind = kind;
    return run_experiment(run).trace_fingerprint;
  };

  const auto static_fp = fingerprint(WorkloadKind::kStatic);
  for (const WorkloadKind kind : {WorkloadKind::kChurn, WorkloadKind::kStorm,
                                  WorkloadKind::kSaturation}) {
    const auto first = fingerprint(kind);
    EXPECT_EQ(first, fingerprint(kind)) << to_string(kind);
    EXPECT_NE(first, static_fp) << to_string(kind);
  }
}

TEST(WorkloadRuns, ChurnShardsMergeToTheUnshardedCampaign) {
  SweepConfig config;
  config.models = {SystemModel::kUpnp, SystemModel::kMdns};
  config.lambdas = {0.3};
  config.runs = 4;
  config.threads = 2;
  config.workload.kind = WorkloadKind::kChurn;

  const auto whole = run_sweep(config);

  std::ostringstream log0, log1;
  for (std::size_t i = 0; i < 2; ++i) {
    SweepConfig shard = config;
    shard.shard = {i, 2};
    JsonlSink sink(i == 0 ? log0 : log1);
    shard.sink = &sink;
    (void)run_sweep(shard);
  }
  std::istringstream in0(log0.str()), in1(log1.str());
  std::istream* shards[] = {&in0, &in1};
  std::string error;
  const auto merged = merge_jsonl(shards, error);
  ASSERT_TRUE(merged.has_value()) << error;
  ASSERT_EQ(merged->size(), whole.size());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    EXPECT_EQ(whole.points[i].metrics.responsiveness,
              merged->points[i].metrics.responsiveness);
    EXPECT_EQ(whole.points[i].metrics.efficiency,
              merged->points[i].metrics.efficiency);
  }
  EXPECT_EQ(whole.summary.kernel.events_fired,
            merged->summary.kernel.events_fired);
}

TEST(WorkloadRuns, MixedWorkloadShardLogsRefuseToMerge) {
  SweepConfig config;
  config.models = {SystemModel::kUpnp};
  config.lambdas = {0.3};
  config.runs = 2;

  std::ostringstream churn_log, static_log;
  {
    SweepConfig churn = config;
    churn.shard = {0, 2};
    churn.workload.kind = WorkloadKind::kChurn;
    JsonlSink sink(churn_log);
    churn.sink = &sink;
    (void)run_sweep(churn);
  }
  {
    SweepConfig plain = config;
    plain.shard = {1, 2};
    JsonlSink sink(static_log);
    plain.sink = &sink;
    (void)run_sweep(plain);
  }
  std::istringstream in0(churn_log.str()), in1(static_log.str());
  std::istream* shards[] = {&in0, &in1};
  std::string error;
  EXPECT_FALSE(merge_jsonl(shards, error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(WorkloadRuns, SaturationBackpressureShowsUpInKernelStats) {
  ExperimentConfig config;
  config.model = SystemModel::kMdns;
  config.seed = 3;
  config.workload.kind = WorkloadKind::kSaturation;
  config.workload.saturation.link_rate_hz = 20.0;
  config.workload.saturation.burst_capacity = 2.0;
  config.workload.saturation.queue_limit = 3;

  const metrics::RunRecord record = run_experiment(config);
  EXPECT_GT(record.kernel.capacity_delayed, 0u);
  EXPECT_GT(record.kernel.capacity_dropped, 0u);
  EXPECT_GT(record.kernel.capacity_queue_peak, 0u);

  // The static scenario never touches the capacity path.
  ExperimentConfig plain = config;
  plain.workload = WorkloadSpec{};
  const metrics::RunRecord baseline = run_experiment(plain);
  EXPECT_EQ(baseline.kernel.capacity_delayed, 0u);
  EXPECT_EQ(baseline.kernel.capacity_dropped, 0u);
}

TEST(WorkloadRuns, JitteredStormsShedCapacityDrops) {
  // The same saturated bursts, synchronized and then staggered over
  // 30 s: jitter sheds the thundering herd, the reason mDNS and
  // phoenix-discovery stagger their announcements.
  SweepConfig config;
  config.models = {SystemModel::kMdns};
  config.lambdas = {0.3};
  config.runs = 2;
  config.threads = 2;
  config.workload.kind = WorkloadKind::kSaturation;
  const std::uint64_t synchronized =
      run_sweep(config).summary.kernel.capacity_dropped;
  config.workload.storm.mitigation_jitter = seconds(30);
  const std::uint64_t jittered =
      run_sweep(config).summary.kernel.capacity_dropped;
  EXPECT_LT(jittered, synchronized);
}

}  // namespace
}  // namespace sdcm::experiment
