// The ISSUE's acceptance scenario for causal tracing: on a recorded
// FRODO run at lambda = 0.15, the service change's fan-out must be one
// connected propagation tree, rooted at the change record, reaching a
// consistency leaf on every User, with per-edge latencies along each
// root-to-leaf path summing exactly to that User's measured
// Responsiveness delay (Section 6.2's analysis, mechanised).
#include <gtest/gtest.h>

#include <cstddef>
#include <optional>
#include <vector>

#include "sdcm/experiment/scenario.hpp"
#include "sdcm/obs/span_tree.hpp"

namespace sdcm::obs {
namespace {

using experiment::ExperimentConfig;
using experiment::SystemModel;

/// Sum of per-edge latencies from `from` up to the record with span
/// `root`; std::nullopt when `from` is not in root's subtree.
std::optional<sim::SimDuration> path_latency_to_root(
    const SpanForest& forest, const sim::TraceRecord* from,
    sim::SpanId root) {
  sim::SimDuration total = 0;
  const sim::TraceRecord* r = from;
  while (r->span != root) {
    const SpanForest::Node* parent =
        r->parent == sim::kNoSpan ? nullptr : forest.find(r->parent);
    if (parent == nullptr) return std::nullopt;
    total += r->at - parent->record->at;
    r = parent->record;
  }
  return total;
}

TEST(PropagationTree, FrodoChangeFanOutReachesEveryUser) {
  ExperimentConfig config;
  config.model = SystemModel::kFrodoThreeParty;
  config.lambda = 0.15;
  config.seed = 7;
  const auto traced = experiment::run_experiment_traced(config);
  ASSERT_EQ(check_span_forest(traced.trace.records()), std::nullopt);

  const SpanForest forest = build_span_forest(traced.trace.records());
  const sim::TraceRecord* root = nullptr;
  for (const sim::TraceRecord& r : traced.trace.records()) {
    if (r.event == "frodo.service_changed") {
      ASSERT_EQ(root, nullptr) << "one change per run";
      root = &r;
    }
  }
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->at, traced.record.change_time);
  EXPECT_EQ(root->node, 10u);  // the Manager changes its own service

  ASSERT_EQ(traced.record.user_reach_times.size(), 5u);
  for (std::size_t j = 0; j < 5; ++j) {
    const sim::NodeId user = 11 + static_cast<sim::NodeId>(j);
    ASSERT_TRUE(traced.record.user_reach_times[j].has_value())
        << "user " << user;
    const sim::SimTime reached = *traced.record.user_reach_times[j];

    // The leaf: this User's version-2 consistency record at its
    // measured reach time.
    const sim::TraceRecord* leaf = nullptr;
    for (const sim::TraceRecord& r : traced.trace.records()) {
      if (r.node == user && r.at == reached &&
          r.event == "frodo.description.stored" &&
          r.detail.version() == 2u) {
        leaf = &r;
      }
    }
    ASSERT_NE(leaf, nullptr) << "user " << user;

    // Connectivity: the leaf sits in the change record's subtree, and
    // its root-to-leaf edge latencies sum to the Responsiveness delay.
    const auto latency = path_latency_to_root(forest, leaf, root->span);
    ASSERT_TRUE(latency.has_value())
        << "user " << user << ": leaf not caused by the change";
    EXPECT_EQ(*latency, reached - traced.record.change_time)
        << "user " << user;
  }
}

}  // namespace
}  // namespace sdcm::obs
