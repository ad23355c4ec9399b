// TopologySpec / TopologyLayout edge cases: id-plan resolution against
// each model's registry row, the dense-packing rule for many
// registries, the clamping contract of resolve_topology, the
// SweepConfig::validate rejections, and that generalized topologies
// (R>2 registries, extra background Managers) actually run and keep the
// m' accounting of Table 2, and that a 10^3-User population builds.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sdcm/discovery/observer.hpp"
#include "sdcm/experiment/protocol_registry.hpp"
#include "sdcm/experiment/scenario.hpp"
#include "sdcm/experiment/sweep.hpp"
#include "sdcm/net/network.hpp"

namespace sdcm::experiment {
namespace {

TEST(TopologySpec, DefaultResolvesToPaperLayoutForEveryModel) {
  for (const SystemModel model : kAllModels) {
    const auto& descriptor = protocol_descriptor(model);
    const TopologyLayout layout = resolve_topology(model, TopologySpec{});
    EXPECT_EQ(layout.registries, descriptor.registry_nodes)
        << descriptor.name;
    EXPECT_EQ(layout.managers, 1) << descriptor.name;
    EXPECT_EQ(layout.users, 5) << descriptor.name;
    // The historical constants: Manager 10, Users from 11.
    EXPECT_EQ(layout.manager_id(0), kManagerId) << descriptor.name;
    EXPECT_EQ(layout.user_id(0), kFirstUserId) << descriptor.name;
    EXPECT_EQ(layout.node_count(),
              static_cast<std::size_t>(descriptor.registry_nodes) + 6u)
        << descriptor.name;
  }
  const TopologyLayout jini2r =
      resolve_topology(SystemModel::kJiniTwoRegistries, TopologySpec{});
  EXPECT_EQ(jini2r.registry_id(0), kRegistryId);
  EXPECT_EQ(jini2r.registry_id(1), kSecondRegistryId);
}

TEST(TopologySpec, RegistrylessModelsIgnoreRegistryOverride) {
  for (const SystemModel model : {SystemModel::kUpnp, SystemModel::kMdns}) {
    TopologySpec spec;
    spec.registries = 4;
    const TopologyLayout layout = resolve_topology(model, spec);
    EXPECT_EQ(layout.registries, 0);
    EXPECT_EQ(layout.manager_id(0), kManagerId);
  }
}

TEST(TopologySpec, RegistryBackedModelsKeepAtLeastOneRegistry) {
  TopologySpec spec;
  spec.registries = 0;  // resolve_topology clamps; validate() rejects.
  const TopologyLayout layout =
      resolve_topology(SystemModel::kJiniOneRegistry, spec);
  EXPECT_EQ(layout.registries, 1);
}

TEST(TopologySpec, ManagersAndUsersClamp) {
  TopologySpec spec;
  spec.managers = 0;
  spec.users = -3;
  const TopologyLayout layout = resolve_topology(SystemModel::kMdns, spec);
  EXPECT_EQ(layout.managers, 1);  // Manager 0 owns the monitored service.
  EXPECT_EQ(layout.users, 0);
  EXPECT_EQ(layout.node_count(), 1u);
  EXPECT_EQ(layout.user_base(), layout.id_bound());
}

TEST(TopologySpec, ManyRegistriesPackManagersDensely) {
  TopologySpec spec;
  spec.registries = 12;
  spec.users = 3;
  const TopologyLayout layout =
      resolve_topology(SystemModel::kJiniTwoRegistries, spec);
  EXPECT_EQ(layout.registries, 12);
  // Registries occupy 1..12, so the Manager moves past kManagerId.
  EXPECT_EQ(layout.registry_id(11), sim::NodeId{12});
  EXPECT_EQ(layout.manager_base(), sim::NodeId{13});
  EXPECT_EQ(layout.user_base(), sim::NodeId{14});
  EXPECT_EQ(layout.id_bound(), sim::NodeId{17});
}

TEST(TopologySpec, NodeIdsFollowAttachOrderAcrossAllAxes) {
  TopologySpec spec;
  spec.users = 3;
  spec.managers = 2;
  spec.registries = 3;
  const auto ids = topology_node_ids(SystemModel::kJiniTwoRegistries, spec);
  // Registries, then Managers, then Users - the failure-plan order.
  EXPECT_EQ(ids, (std::vector<sim::NodeId>{1, 2, 3, 10, 11, 12, 13, 14}));
  // The legacy users-only overload is the default spec.
  EXPECT_EQ(topology_node_ids(SystemModel::kUpnp, 5),
            topology_node_ids(SystemModel::kUpnp, TopologySpec{}));
}

TEST(TopologySpec, MinimumUpdateMessagesScalesWithRegistries) {
  // Table 2 at the paper spec...
  EXPECT_EQ(minimum_update_messages(SystemModel::kJiniOneRegistry, 5), 7u);
  EXPECT_EQ(minimum_update_messages(SystemModel::kJiniTwoRegistries, 5), 14u);
  // ...and the generalized R-partitioned registry plane: R*(u+2).
  EXPECT_EQ(minimum_update_messages(SystemModel::kJiniTwoRegistries, 5, 3),
            21u);
  EXPECT_EQ(minimum_update_messages(SystemModel::kJiniOneRegistry, 4, 5),
            30u);
  // Models without a registry plane ignore the registry count.
  EXPECT_EQ(minimum_update_messages(SystemModel::kUpnp, 5, 7), 15u);
  EXPECT_EQ(minimum_update_messages(SystemModel::kMdns, 5, 7), 2u);
  EXPECT_EQ(minimum_update_messages(SystemModel::kFrodoThreeParty, 5, 4), 7u);
}

TEST(TopologySpec, JiniThreeRegistryRunMatchesGeneralizedMPrime) {
  ExperimentConfig config;
  config.model = SystemModel::kJiniTwoRegistries;
  config.topology.registries = 3;
  const auto record = run_experiment(config);
  ASSERT_EQ(record.user_reach_times.size(), 5u);
  for (const auto& t : record.user_reach_times) {
    EXPECT_TRUE(t.has_value());
  }
  EXPECT_EQ(record.update_messages,
            minimum_update_messages(config.model, 5, 3));
}

TEST(TopologySpec, BackgroundManagersDoNotJoinTheConsistencyWindow) {
  // Extra Managers publish background services; the monitored change
  // still costs exactly m' update messages at lambda = 0.
  for (const SystemModel model : kAllModels) {
    ExperimentConfig config;
    config.model = model;
    config.topology.users = 3;
    config.topology.managers = 3;
    const auto record = run_experiment(config);
    ASSERT_EQ(record.user_reach_times.size(), 3u)
        << protocol_descriptor(model).name;
    for (const auto& t : record.user_reach_times) {
      EXPECT_TRUE(t.has_value()) << protocol_descriptor(model).name;
    }
    EXPECT_EQ(record.update_messages, minimum_update_messages(model, 3))
        << protocol_descriptor(model).name;
  }
}

TEST(TopologySpec, MdnsBuildsAThousandUsersThroughTheRegistry) {
  ExperimentConfig config;
  config.model = SystemModel::kMdns;
  config.topology.users = 1000;
  const TopologyLayout layout =
      resolve_topology(config.model, config.topology);
  sim::Simulator simulator{1};
  simulator.trace().set_recording(false);
  net::Network network{simulator};
  discovery::ConsistencyObserver observer;
  network.reserve_nodes(layout.id_bound());
  const Topology topo = protocol_descriptor(config.model)
                            .build(config, simulator, network, observer);
  EXPECT_EQ(topo.nodes.size(), layout.node_count());
  EXPECT_EQ(network.nodes().size(), layout.node_count());
  EXPECT_EQ(observer.users().size(), 1000u);
}

TEST(TopologySpec, SweepValidateRejectsDegenerateTopologies) {
  const auto message_for = [](TopologySpec topology,
                              std::vector<SystemModel> models = {
                                  SystemModel::kJiniOneRegistry}) {
    SweepConfig config;
    config.models = std::move(models);
    config.topology = topology;
    return config.validate();
  };

  TopologySpec ok;
  EXPECT_EQ(message_for(ok), std::nullopt);

  TopologySpec no_users;
  no_users.users = 0;
  auto error = message_for(no_users);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("users"), std::string::npos);

  TopologySpec no_managers;
  no_managers.managers = 0;
  error = message_for(no_managers);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("managers"), std::string::npos);

  TopologySpec zero_registries;
  zero_registries.registries = 0;
  error = message_for(zero_registries);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("registries"), std::string::npos);

  TopologySpec negative_registries;
  negative_registries.registries = -2;
  error = message_for(negative_registries);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("registries"), std::string::npos);

  // Overriding the registry count is meaningless for a sweep that
  // includes a model with no registry plane.
  TopologySpec two_registries;
  two_registries.registries = 2;
  error = message_for(two_registries, {SystemModel::kJiniOneRegistry,
                                       SystemModel::kMdns});
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("registry"), std::string::npos);
  EXPECT_EQ(message_for(two_registries, {SystemModel::kJiniOneRegistry}),
            std::nullopt);
}

}  // namespace
}  // namespace sdcm::experiment
