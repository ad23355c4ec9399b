// Property tests over whole traced runs: the causal-span invariants hold
// for every protocol model at every failure regime, and a traced run
// replays the plain run exactly.
#include <gtest/gtest.h>

#include <string>

#include "sdcm/experiment/scenario.hpp"
#include "sdcm/obs/span_tree.hpp"

namespace sdcm::obs {
namespace {

using experiment::ExperimentConfig;
using experiment::kAllModels;
using experiment::run_experiment_traced;
using experiment::SystemModel;

TEST(TracedRuns, SpanGraphIsAForestForEveryModelAndFailureRate) {
  for (const SystemModel model : kAllModels) {
    for (const double lambda : {0.0, 0.3, 0.9}) {
      ExperimentConfig config;
      config.model = model;
      config.lambda = lambda;
      config.seed = 20060425;
      const auto traced = run_experiment_traced(config);
      ASSERT_FALSE(traced.trace.records().empty());
      const auto violation = check_span_forest(traced.trace.records());
      EXPECT_EQ(violation, std::nullopt)
          << to_string(model) << " lambda " << lambda << ": " << *violation;
    }
  }
}

TEST(TracedRuns, TracedAndPlainRunsAgreeOnBehaviour) {
  // run_experiment_traced must replay the exact run run_experiment does:
  // same seed, same record, same fingerprint.
  ExperimentConfig config;
  config.model = SystemModel::kFrodoThreeParty;
  config.lambda = 0.3;
  config.seed = 7;
  config.record_trace = true;
  const auto plain = experiment::run_experiment(config);
  const auto traced = run_experiment_traced(config);
  EXPECT_EQ(traced.record.trace_fingerprint, plain.trace_fingerprint);
  EXPECT_EQ(traced.trace.fingerprint(), plain.trace_fingerprint);
  EXPECT_EQ(traced.record.update_messages, plain.update_messages);
}

}  // namespace
}  // namespace sdcm::obs
