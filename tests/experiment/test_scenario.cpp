#include "sdcm/experiment/scenario.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sdcm/discovery/node.hpp"

namespace sdcm::experiment {
namespace {

using sim::seconds;

std::string model_name(
    const ::testing::TestParamInfo<SystemModel>& param_info) {
  std::string name(to_string(param_info.param));
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class ZeroFailureRun : public ::testing::TestWithParam<SystemModel> {};

TEST_P(ZeroFailureRun, AllUsersConsistentWithMinimumMessages) {
  // At lambda = 0 every model must deliver the change to all 5 Users and
  // spend exactly its own minimum message count m' (Table 2) - this is
  // what anchors G(0) = 1 in Figure 6.
  ExperimentConfig config;
  config.model = GetParam();
  config.lambda = 0.0;
  config.seed = 7;
  const auto record = run_experiment(config);

  ASSERT_EQ(record.user_reach_times.size(), 5u);
  for (const auto& reach : record.user_reach_times) {
    ASSERT_TRUE(reach.has_value());
    EXPECT_GT(*reach, record.change_time);
    EXPECT_LT(*reach, record.deadline);
  }
  EXPECT_EQ(record.update_messages,
            minimum_update_messages(GetParam(), 5));
}

TEST_P(ZeroFailureRun, DeterministicForSameSeed) {
  ExperimentConfig config;
  config.model = GetParam();
  config.lambda = 0.25;
  config.seed = 99;
  const auto a = run_experiment(config);
  const auto b = run_experiment(config);
  EXPECT_EQ(a.change_time, b.change_time);
  EXPECT_EQ(a.update_messages, b.update_messages);
  ASSERT_EQ(a.user_reach_times.size(), b.user_reach_times.size());
  for (std::size_t i = 0; i < a.user_reach_times.size(); ++i) {
    EXPECT_EQ(a.user_reach_times[i], b.user_reach_times[i]);
  }
}

TEST_P(ZeroFailureRun, DifferentSeedsMoveTheChangeTime) {
  ExperimentConfig config;
  config.model = GetParam();
  config.seed = 1;
  const auto a = run_experiment(config);
  config.seed = 2;
  const auto b = run_experiment(config);
  EXPECT_NE(a.change_time, b.change_time);
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ZeroFailureRun, ::testing::ValuesIn(kAllModels),
    model_name);

TEST(Scenario, ChangeTimeInPaperWindow) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    ExperimentConfig config;
    config.model = SystemModel::kFrodoThreeParty;
    config.seed = seed;
    const auto record = run_experiment(config);
    EXPECT_GE(record.change_time, seconds(100));
    EXPECT_LE(record.change_time, seconds(2700));
    EXPECT_EQ(record.deadline, seconds(5400));
  }
}

TEST(Scenario, MinimumMessageConstants) {
  EXPECT_EQ(minimum_update_messages(SystemModel::kUpnp, 5), 15u);
  EXPECT_EQ(minimum_update_messages(SystemModel::kJiniOneRegistry, 5), 7u);
  EXPECT_EQ(minimum_update_messages(SystemModel::kJiniTwoRegistries, 5), 14u);
  EXPECT_EQ(minimum_update_messages(SystemModel::kFrodoThreeParty, 5), 7u);
  EXPECT_EQ(minimum_update_messages(SystemModel::kFrodoTwoParty, 5), 7u);
  // mDNS: the change burst is update_repeats multicasts, independent of
  // the user population.
  EXPECT_EQ(minimum_update_messages(SystemModel::kMdns, 5), 2u);
  EXPECT_EQ(minimum_update_messages(SystemModel::kMdns, 50), 2u);
}

/// A node that only counts its workload lifecycle calls.
class LifecycleCounter : public discovery::Node {
 public:
  LifecycleCounter(sim::Simulator& simulator, net::Network& network,
                   sim::NodeId id)
      : Node(simulator, network, id, "lifecycle-counter") {}
  void start() override {}
  void depart() override { ++departs; }
  void rejoin() override { ++rejoins; }
  void announce_now() override { ++announces; }

  int departs = 0;
  int rejoins = 0;
  int announces = 0;

 protected:
  void on_message(const net::Message&) override {}
};

TEST(Scenario, WorkloadEventWithoutATopologyNodeIsSkipped) {
  sim::Simulator simulator(3);
  net::Network network(simulator);
  std::vector<std::unique_ptr<discovery::Node>> nodes;
  nodes.push_back(std::make_unique<LifecycleCounter>(simulator, network, 11));
  nodes.push_back(std::make_unique<LifecycleCounter>(simulator, network, 13));
  // Node 12 lies inside the id table but has no node; 40 lies past it.
  const std::vector<WorkloadEvent> events = {
      {seconds(1), WorkloadAction::kDepart, 11},
      {seconds(2), WorkloadAction::kDepart, 12},
      {seconds(3), WorkloadAction::kRejoin, 13},
      {seconds(4), WorkloadAction::kAnnounce, 40},
      {seconds(5), WorkloadAction::kAnnounce, 13},
  };
  schedule_workload_events(simulator, nodes, /*id_bound=*/14, events);
  EXPECT_EQ(simulator.pending_events(), 3u);
  simulator.run_all();
  const auto& a = static_cast<const LifecycleCounter&>(*nodes[0]);
  const auto& b = static_cast<const LifecycleCounter&>(*nodes[1]);
  EXPECT_EQ(a.departs, 1);
  EXPECT_EQ(a.rejoins + a.announces, 0);
  EXPECT_EQ(b.departs, 0);
  EXPECT_EQ(b.rejoins, 1);
  EXPECT_EQ(b.announces, 1);
}

TEST(Scenario, ModelNames) {
  EXPECT_EQ(to_string(SystemModel::kUpnp), "UPnP");
  EXPECT_EQ(to_string(SystemModel::kFrodoTwoParty), "FRODO-2party");
}

class ModerateFailureRun : public ::testing::TestWithParam<SystemModel> {};

TEST_P(ModerateFailureRun, RunsToCompletionAcrossSeeds) {
  // Robustness: no model may crash, hang, or corrupt its record under
  // failure injection; reach times (when present) must be causal.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    ExperimentConfig config;
    config.model = GetParam();
    config.lambda = 0.45;
    config.seed = seed;
    const auto record = run_experiment(config);
    ASSERT_EQ(record.user_reach_times.size(), 5u);
    for (const auto& reach : record.user_reach_times) {
      if (reach.has_value()) {
        EXPECT_GT(*reach, record.change_time);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllModels, ModerateFailureRun, ::testing::ValuesIn(kAllModels),
    model_name);

}  // namespace
}  // namespace sdcm::experiment
