#include "sdcm/experiment/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <iterator>

#include <set>
#include <sstream>
#include <stdexcept>

#include "sdcm/experiment/sink.hpp"

namespace sdcm::experiment {
namespace {

TEST(Sweep, PaperLambdaGridIs19Points) {
  const auto grid = SweepConfig::paper_lambda_grid();
  ASSERT_EQ(grid.size(), 19u);
  EXPECT_DOUBLE_EQ(grid.front(), 0.0);
  EXPECT_DOUBLE_EQ(grid.back(), 0.9);
  EXPECT_DOUBLE_EQ(grid[1], 0.05);
}

TEST(Sweep, RunSeedsAreDeterministicAndDistinct) {
  const auto a = run_seed(1, SystemModel::kUpnp, 0, 0);
  EXPECT_EQ(a, run_seed(1, SystemModel::kUpnp, 0, 0));
  EXPECT_NE(a, run_seed(1, SystemModel::kUpnp, 0, 1));
  EXPECT_NE(a, run_seed(1, SystemModel::kUpnp, 1, 0));
  EXPECT_NE(a, run_seed(1, SystemModel::kJiniOneRegistry, 0, 0));
  EXPECT_NE(a, run_seed(2, SystemModel::kUpnp, 0, 0));
}

TEST(Sweep, SmallSweepProducesOrderedPerfectZeroFailurePoints) {
  SweepConfig config;
  config.models = {SystemModel::kFrodoTwoParty, SystemModel::kUpnp};
  config.lambdas = {0.0};
  config.runs = 3;
  config.threads = 2;
  config.keep_records = true;
  const auto result = run_sweep(config);
  const auto& points = result.points;
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].model, SystemModel::kFrodoTwoParty);
  EXPECT_EQ(points[1].model, SystemModel::kUpnp);
  for (const auto& p : points) {
    EXPECT_EQ(p.lambda_index, 0u);
    EXPECT_EQ(p.runs, 3);
    EXPECT_EQ(p.records.size(), 3u);
    EXPECT_DOUBLE_EQ(p.metrics.effectiveness, 1.0);
    EXPECT_DOUBLE_EQ(p.metrics.degradation, 1.0);
    EXPECT_GT(p.metrics.responsiveness, 0.4);
  }
  // E(0): FRODO owns m = 7 -> 1.0; UPnP spends 15 -> 7/15.
  EXPECT_DOUBLE_EQ(points[0].metrics.efficiency, 1.0);
  EXPECT_NEAR(points[1].metrics.efficiency, 7.0 / 15.0, 1e-9);
  // Campaign telemetry accumulated while streaming.
  EXPECT_EQ(result.summary.runs_completed, 6u);
  EXPECT_EQ(result.summary.points, 2u);
  EXPECT_GT(result.summary.wall_ns, 0u);
  EXPECT_GT(result.summary.kernel.events_fired, 0u);
  EXPECT_GT(result.summary.sim_seconds_total, 0.0);
}

TEST(Sweep, RecordsDroppedUnlessKept) {
  SweepConfig config;
  config.models = {SystemModel::kUpnp};
  config.lambdas = {0.0};
  config.runs = 2;
  const auto result = run_sweep(config);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_TRUE(result.points[0].records.empty());
  EXPECT_EQ(result.points[0].runs, 2);
}

TEST(Sweep, ResultsIndependentOfThreadCount) {
  SweepConfig config;
  config.models = {SystemModel::kJiniOneRegistry};
  config.lambdas = {0.3};
  config.runs = 4;
  config.keep_records = true;

  config.threads = 1;
  const auto serial = run_sweep(config);
  config.threads = 4;
  const auto parallel = run_sweep(config);

  ASSERT_EQ(serial.size(), 1u);
  ASSERT_EQ(parallel.size(), 1u);
  // Bit-identical, not merely close: the streaming reduction replays
  // order-sensitive sums in run-index order regardless of completion
  // order.
  EXPECT_EQ(serial.points[0].metrics.responsiveness,
            parallel.points[0].metrics.responsiveness);
  EXPECT_EQ(serial.points[0].metrics.effectiveness,
            parallel.points[0].metrics.effectiveness);
  EXPECT_EQ(serial.points[0].metrics.efficiency,
            parallel.points[0].metrics.efficiency);
  EXPECT_EQ(serial.points[0].metrics.degradation,
            parallel.points[0].metrics.degradation);
  for (std::size_t r = 0; r < serial.points[0].records.size(); ++r) {
    EXPECT_EQ(serial.points[0].records[r].update_messages,
              parallel.points[0].records[r].update_messages);
  }
}

TEST(Sweep, StreamingSummariesMatchBatchBitForBit) {
  // The acceptance bar of the streaming engine: for every point the
  // online aggregation must reproduce the keep-everything batch
  // summarize exactly, including the order-sensitive FP sums.
  SweepConfig config;
  config.models = {SystemModel::kUpnp, SystemModel::kFrodoThreeParty};
  config.lambdas = {0.0, 0.45, 0.9};
  config.runs = 5;
  config.threads = 4;
  config.keep_records = true;
  const auto result = run_sweep(config);
  ASSERT_EQ(result.size(), 6u);
  for (const auto& p : result.points) {
    const auto batch = metrics::update_metrics::summarize(
        p.records, metrics::update_metrics::kPaperGlobalMinimumMessages,
        minimum_update_messages(p.model, config.topology.users));
    EXPECT_EQ(p.metrics.responsiveness, batch.responsiveness);
    EXPECT_EQ(p.metrics.effectiveness, batch.effectiveness);
    EXPECT_EQ(p.metrics.efficiency, batch.efficiency);
    EXPECT_EQ(p.metrics.degradation, batch.degradation);
  }
}

TEST(Sweep, StreamingMatchesBatchWithMultiEpisodePlansAndLoss) {
  // Same bit-for-bit bar under the harsher fault shapes the fuzzer
  // exercises: three truncated episodes per node plus message loss.
  SweepConfig config;
  config.models = {SystemModel::kJiniTwoRegistries, SystemModel::kUpnp};
  config.lambdas = {0.3, 0.9};
  config.runs = 4;
  config.threads = 4;
  config.keep_records = true;
  config.ablation.episodes = 3;
  config.ablation.placement = net::FailurePlacement::kTruncated;
  config.ablation.message_loss_rate = 0.1;
  const auto result = run_sweep(config);
  ASSERT_EQ(result.size(), 4u);
  for (const auto& p : result.points) {
    const auto batch = metrics::update_metrics::summarize(
        p.records, metrics::update_metrics::kPaperGlobalMinimumMessages,
        minimum_update_messages(p.model, config.topology.users));
    EXPECT_EQ(p.metrics.responsiveness, batch.responsiveness);
    EXPECT_EQ(p.metrics.effectiveness, batch.effectiveness);
    EXPECT_EQ(p.metrics.efficiency, batch.efficiency);
    EXPECT_EQ(p.metrics.degradation, batch.degradation);
  }
}

TEST(Sweep, CheckSinkOraclesEveryRunAndStaysClean) {
  SweepConfig config;
  config.models = {SystemModel::kFrodoThreeParty, SystemModel::kUpnp};
  config.lambdas = {0.3, 0.9};
  config.runs = 3;
  config.threads = 4;
  config.ablation.episodes = 2;
  CheckSink checks;
  config.check_sink = &checks;
  const auto result = run_sweep(config);
  EXPECT_EQ(result.summary.runs_completed, 12u);
  EXPECT_EQ(checks.runs_checked(), 12u);
  EXPECT_EQ(checks.violation_total(), 0u);
  EXPECT_TRUE(checks.violations().empty());
  std::ostringstream report;
  checks.write_report(report);
  EXPECT_NE(report.str().find("12 runs checked"), std::string::npos);
}

TEST(Sweep, CustomizeHookAppliesAfterAblationSpec) {
  SweepConfig config;
  config.models = {SystemModel::kFrodoTwoParty};
  config.lambdas = {0.0};
  config.runs = 2;
  config.ablation.frodo_pr3 = false;
  std::atomic<bool> spec_seen{false};
  config.customize = [&spec_seen](ExperimentConfig& run) {
    spec_seen = !run.frodo.enable_pr3;  // ablation already applied
    run.frodo.enable_srn2 = false;
  };
  const auto result = run_sweep(config);
  EXPECT_TRUE(spec_seen);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_DOUBLE_EQ(result.points[0].metrics.effectiveness, 1.0);
}

TEST(Sweep, AblationSpecAppliesEveryKnob) {
  AblationSpec spec;
  spec.frodo_pr1 = false;
  spec.frodo_srn2 = false;
  spec.frodo_pr3 = false;
  spec.frodo_pr4 = false;
  spec.frodo_pr5 = false;
  spec.upnp_pr4 = false;
  spec.upnp_pr5 = false;
  spec.placement = net::FailurePlacement::kTruncated;
  spec.episodes = 3;
  spec.message_loss_rate = 0.25;
  ExperimentConfig run;
  spec.apply(run);
  EXPECT_FALSE(run.frodo.enable_pr1);
  EXPECT_FALSE(run.frodo.enable_srn2);
  EXPECT_FALSE(run.frodo.enable_pr3);
  EXPECT_FALSE(run.frodo.enable_pr4);
  EXPECT_FALSE(run.frodo.enable_pr5);
  EXPECT_FALSE(run.upnp.enable_pr4);
  EXPECT_FALSE(run.upnp.enable_pr5);
  EXPECT_EQ(run.failure_placement, net::FailurePlacement::kTruncated);
  EXPECT_EQ(run.failure_episodes, 3);
  EXPECT_DOUBLE_EQ(run.message_loss_rate, 0.25);
}

TEST(Sweep, ValidateCatchesBadConfigs) {
  SweepConfig ok;
  EXPECT_FALSE(ok.validate().has_value());

  SweepConfig no_models = ok;
  no_models.models.clear();
  EXPECT_TRUE(no_models.validate().has_value());

  SweepConfig no_lambdas = ok;
  no_lambdas.lambdas.clear();
  EXPECT_TRUE(no_lambdas.validate().has_value());

  SweepConfig bad_lambda = ok;
  bad_lambda.lambdas = {1.5};
  EXPECT_TRUE(bad_lambda.validate().has_value());

  SweepConfig zero_runs = ok;
  zero_runs.runs = 0;
  EXPECT_TRUE(zero_runs.validate().has_value());

  SweepConfig bad_shard = ok;
  bad_shard.shard.index = 2;
  bad_shard.shard.count = 2;
  EXPECT_TRUE(bad_shard.validate().has_value());

  EXPECT_THROW(run_sweep(zero_runs), std::invalid_argument);
}

TEST(Sweep, ValidateRejectsAblationsNoSelectedModelImplements) {
  // Disabling a FRODO technique in a UPnP-only sweep would silently run
  // the un-ablated protocol; the descriptor's ablation mask catches it.
  SweepConfig upnp_only;
  upnp_only.models = {SystemModel::kUpnp};
  upnp_only.ablation.frodo_pr1 = false;
  const auto error = upnp_only.validate();
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("frodo-pr1"), std::string::npos);

  SweepConfig frodo_only;
  frodo_only.models = {SystemModel::kFrodoThreeParty};
  frodo_only.ablation.upnp_pr4 = false;
  EXPECT_TRUE(frodo_only.validate().has_value());

  // mDNS implements no ablation toggle at all.
  SweepConfig mdns_only;
  mdns_only.models = {SystemModel::kMdns};
  mdns_only.ablation.frodo_pr5 = false;
  EXPECT_TRUE(mdns_only.validate().has_value());

  // The same disabled toggle is fine when an implementing model is
  // selected alongside.
  SweepConfig mixed;
  mixed.models = {SystemModel::kMdns, SystemModel::kFrodoThreeParty};
  mixed.ablation.frodo_pr5 = false;
  EXPECT_FALSE(mixed.validate().has_value());
}

TEST(Sweep, ShardAssignmentPartitionsEveryJob) {
  // Every (model, lambda_index, run) lands in exactly one shard, and
  // the assignment is a pure function of the key.
  const std::size_t kShards = 3;
  std::size_t counts[3] = {0, 0, 0};
  for (const auto model : kAllModels) {
    for (std::size_t li = 0; li < 19; ++li) {
      for (int run = 0; run < 30; ++run) {
        const auto s = shard_of(model, li, run, kShards);
        ASSERT_LT(s, kShards);
        EXPECT_EQ(s, shard_of(model, li, run, kShards));
        ++counts[s];
      }
    }
  }
  // The hash should spread jobs roughly evenly (no empty shard).
  EXPECT_GT(counts[0], 0u);
  EXPECT_GT(counts[1], 0u);
  EXPECT_GT(counts[2], 0u);
  EXPECT_EQ(counts[0] + counts[1] + counts[2],
            std::size(kAllModels) * 19u * 30u);
}

TEST(Sweep, ShardedUnionReproducesUnshardedViaMerge) {
  SweepConfig config;
  config.models = {SystemModel::kUpnp, SystemModel::kFrodoTwoParty};
  config.lambdas = {0.15, 0.45};
  config.runs = 4;
  config.threads = 2;

  const auto whole = run_sweep(config);

  std::ostringstream log0, log1;
  {
    SweepConfig shard = config;
    shard.shard = {0, 2};
    JsonlSink sink(log0);
    shard.sink = &sink;
    (void)run_sweep(shard);
  }
  {
    SweepConfig shard = config;
    shard.shard = {1, 2};
    JsonlSink sink(log1);
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
    const auto& a = whole.points[i];
    const auto& b = merged->points[i];
    EXPECT_EQ(a.model, b.model);
    EXPECT_EQ(a.lambda, b.lambda);
    EXPECT_EQ(a.runs, b.runs);
    // Bit-for-bit: the merge replays the identical streaming reduction.
    EXPECT_EQ(a.metrics.responsiveness, b.metrics.responsiveness);
    EXPECT_EQ(a.metrics.effectiveness, b.metrics.effectiveness);
    EXPECT_EQ(a.metrics.efficiency, b.metrics.efficiency);
    EXPECT_EQ(a.metrics.degradation, b.metrics.degradation);
  }
  EXPECT_EQ(merged->summary.runs_completed, whole.summary.runs_completed);
  EXPECT_EQ(merged->summary.kernel.events_fired,
            whole.summary.kernel.events_fired);
}

TEST(Sweep, ScopedRngSweepIsShardInvariantUnderTheOracle) {
  // Subscriber-only fan-out changes RNG consumption inside a run, never
  // across runs: a sharded campaign must reproduce the unsharded one bit
  // for bit, with the consistency oracle clean on every run in both.
  SweepConfig config;
  config.models = {SystemModel::kFrodoThreeParty, SystemModel::kUpnp};
  config.lambdas = {0.15, 0.45};
  config.runs = 4;
  config.threads = 2;

  CheckSink whole_checks;
  config.check_sink = &whole_checks;
  const auto whole = run_sweep(config);
  EXPECT_EQ(whole_checks.runs_checked(), 16u);
  EXPECT_EQ(whole_checks.violation_total(), 0u);

  std::ostringstream log0, log1;
  CheckSink shard_checks;
  for (int s = 0; s < 2; ++s) {
    SweepConfig shard = config;
    shard.shard = {static_cast<std::size_t>(s), 2};
    JsonlSink sink(s == 0 ? log0 : log1);
    shard.sink = &sink;
    shard.check_sink = &shard_checks;
    (void)run_sweep(shard);
  }
  EXPECT_EQ(shard_checks.runs_checked(), 16u);
  EXPECT_EQ(shard_checks.violation_total(), 0u);

  std::istringstream in0(log0.str()), in1(log1.str());
  std::istream* shards[] = {&in0, &in1};
  std::string error;
  const auto merged = merge_jsonl(shards, error);
  ASSERT_TRUE(merged.has_value()) << error;
  ASSERT_EQ(merged->size(), whole.size());
  for (std::size_t i = 0; i < whole.size(); ++i) {
    const auto& a = whole.points[i];
    const auto& b = merged->points[i];
    EXPECT_EQ(a.metrics.responsiveness, b.metrics.responsiveness);
    EXPECT_EQ(a.metrics.effectiveness, b.metrics.effectiveness);
    EXPECT_EQ(a.metrics.efficiency, b.metrics.efficiency);
    EXPECT_EQ(a.metrics.degradation, b.metrics.degradation);
  }
  // The skip counter travels in the JSONL records and survives the merge.
  EXPECT_EQ(merged->summary.kernel.udp_deliveries_skipped,
            whole.summary.kernel.udp_deliveries_skipped);
  EXPECT_GT(whole.summary.kernel.udp_deliveries_skipped, 0u);
}

TEST(Sweep, MergeRefusesMixedCampaignVersions) {
  // Version 1 logs came from one of three older multicast fan-out
  // modes, each its own RNG stream, and version 2 headers do not record
  // the ablation: neither parses, so neither merges, with current logs
  // or with each other.
  SweepConfig config;
  config.models = {SystemModel::kUpnp};
  config.lambdas = {0.15};
  config.runs = 2;
  config.shard = {0, 2};
  std::ostringstream log0, log1;
  for (int s = 0; s < 2; ++s) {
    SweepConfig shard = config;
    shard.shard.index = static_cast<std::size_t>(s);
    JsonlSink sink(s == 0 ? log0 : log1);
    shard.sink = &sink;
    (void)run_sweep(shard);
  }
  const std::string v3 = log1.str();
  ASSERT_NE(v3.find("{\"sdcm_campaign\":3,"), std::string::npos) << v3;
  EXPECT_EQ(v3.find("udp_dropped"), std::string::npos);
  EXPECT_EQ(v3.find("scope"), std::string::npos);

  for (const char* old_version :
       {"\"sdcm_campaign\":1", "\"sdcm_campaign\":2"}) {
    // The shards as an older writer stamped them.
    const auto as_old = [old_version](std::string log) {
      log.replace(log.find("\"sdcm_campaign\":3"), 17, old_version);
      return log;
    };
    const std::string old_0 = as_old(log0.str());
    const std::string old_1 = as_old(v3);
    std::string error;
    const auto header =
        parse_jsonl_header(old_1.substr(0, old_1.find('\n')), error);
    EXPECT_FALSE(header.has_value()) << old_version;
    EXPECT_NE(error.find("version"), std::string::npos) << error;

    std::istringstream in0(log0.str()), in1(old_1);
    std::istream* shards[] = {&in0, &in1};
    EXPECT_FALSE(merge_jsonl(shards, error).has_value()) << old_version;
    EXPECT_NE(error.find("version"), std::string::npos) << error;

    std::istringstream old0(old_0), old1(old_1);
    std::istream* old[] = {&old0, &old1};
    error.clear();
    EXPECT_FALSE(merge_jsonl(old, error).has_value()) << old_version;
    EXPECT_NE(error.find("version"), std::string::npos) << error;
  }

  std::string error;
  std::istringstream same0(log0.str()), same1(v3);
  std::istream* same[] = {&same0, &same1};
  EXPECT_TRUE(merge_jsonl(same, error).has_value()) << error;
}

TEST(Sweep, ShardedSweepRunsOnlyItsSlice) {
  SweepConfig config;
  config.models = {SystemModel::kUpnp};
  config.lambdas = {0.0, 0.3};
  config.runs = 6;
  config.shard = {0, 2};
  const auto half = run_sweep(config);
  std::uint64_t expected = 0;
  for (std::size_t li = 0; li < config.lambdas.size(); ++li) {
    for (int run = 0; run < config.runs; ++run) {
      if (shard_of(SystemModel::kUpnp, li, run, 2) == 0) ++expected;
    }
  }
  EXPECT_EQ(half.summary.runs_completed, expected);
  EXPECT_LT(expected, 12u);  // a 2-way split leaves work for shard 1
}

}  // namespace
}  // namespace sdcm::experiment
