#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sdcm/discovery/observer.hpp"
#include "sdcm/jini/manager.hpp"
#include "sdcm/jini/registry.hpp"
#include "sdcm/jini/user.hpp"

namespace sdcm::jini {
namespace {

using discovery::ServiceDescription;
using sim::seconds;

ServiceDescription printer_sd() {
  ServiceDescription sd;
  sd.id = 1;
  sd.device_type = "Printer";
  sd.service_type = "ColorPrinter";
  sd.attributes = {{"PaperSize", "A4"}};
  return sd;
}

Template printer_req() { return Template{"Printer", "ColorPrinter"}; }

struct JiniFixture : ::testing::Test {
  sim::Simulator simulator{321};
  net::Network network{simulator};
  discovery::ConsistencyObserver observer;
  std::vector<std::unique_ptr<JiniRegistry>> registries;
  std::unique_ptr<JiniManager> manager;
  std::vector<std::unique_ptr<JiniUser>> users;

  /// Node ids: registries 1..R, manager 10, users 11..
  void build(std::size_t n_registries, std::size_t n_users,
             JiniConfig config = {}) {
    for (std::size_t r = 0; r < n_registries; ++r) {
      registries.push_back(std::make_unique<JiniRegistry>(
          simulator, network, static_cast<NodeId>(1 + r), config));
    }
    manager =
        std::make_unique<JiniManager>(simulator, network, 10, config,
                                      &observer);
    manager->add_service(printer_sd());
    for (std::size_t i = 0; i < n_users; ++i) {
      users.push_back(std::make_unique<JiniUser>(
          simulator, network, static_cast<NodeId>(11 + i), printer_req(),
          config, &observer));
    }
    for (auto& r : registries) r->start();
    manager->start();
    for (auto& u : users) u->start();
  }
};

TEST_F(JiniFixture, DiscoveryRegistersAndLooksUp) {
  build(1, 1);
  simulator.run_until(seconds(100));
  EXPECT_TRUE(manager->knows_registry(1));
  EXPECT_TRUE(registries[0]->has_registration(1));
  EXPECT_EQ(registries[0]->event_registration_count(), 1u);
  ASSERT_TRUE(users[0]->cached().has_value());
  EXPECT_EQ(users[0]->cached()->version, 1u);
}

TEST_F(JiniFixture, AllFiveUsersDiscoverWithinPaperWindow) {
  build(1, 5);
  simulator.run_until(seconds(100));
  for (const auto& u : users) {
    ASSERT_TRUE(u->cached().has_value());
    EXPECT_EQ(u->cached()->version, 1u);
  }
  EXPECT_EQ(registries[0]->event_registration_count(), 5u);
}

TEST_F(JiniFixture, ChangePropagatesViaRemoteEvents) {
  build(1, 5);
  simulator.run_until(seconds(100));
  manager->change_service(1, {{"PaperSize", "Letter"}});
  simulator.run_until(seconds(200));
  for (const auto& u : users) {
    ASSERT_TRUE(u->cached().has_value());
    EXPECT_EQ(u->cached()->version, 2u);
    EXPECT_EQ(u->cached()->attributes.at("PaperSize"), "Letter");
  }
}

TEST_F(JiniFixture, UpdateTransactionIsNPlus2DiscoveryLayerMessages) {
  // Table 2: Jini needs N + 2 update messages without TCP accounting
  // (register + response + N remote events). N = 5 -> m' = 7 (Figure 6).
  build(1, 5);
  simulator.run_until(seconds(100));
  EXPECT_EQ(network.counters().of_class(net::MessageClass::kUpdate), 0u);
  // Users whose notification request preceded the manager's initial
  // registration legitimately received a version-1 event during
  // discovery; measure the post-change delta.
  const auto events_before = network.counters().of_type(msg::kRemoteEvent);
  manager->change_service(1);
  simulator.run_until(seconds(200));
  EXPECT_EQ(network.counters().of_class(net::MessageClass::kUpdate), 7u);
  EXPECT_EQ(network.counters().of_type(msg::kRemoteEvent) - events_before,
            5u);
}

TEST_F(JiniFixture, TwoRegistriesDoubleTheUpdateTraffic) {
  // Table 2: with y registries the count is y (2N + 2); at the discovery
  // layer 2 (N + 2) = 14 = the m' of "Jini with 2 Registries" in Fig. 6.
  build(2, 5);
  simulator.run_until(seconds(100));
  EXPECT_EQ(manager->known_registry_count(), 2u);
  const auto events_before = network.counters().of_type(msg::kRemoteEvent);
  manager->change_service(1);
  simulator.run_until(seconds(200));
  EXPECT_EQ(network.counters().of_class(net::MessageClass::kUpdate), 14u);
  EXPECT_EQ(network.counters().of_type(msg::kRemoteEvent) - events_before,
            10u);
}

TEST_F(JiniFixture, AnnouncementsAreSixFoldEvery120s) {
  build(1, 0);
  simulator.run_until(seconds(601));
  // t = 0, 120, 240, 360, 480, 600 -> 6 announcements x 6 copies.
  EXPECT_EQ(network.counters().of_type(msg::kAnnounce), 36u);
}

TEST_F(JiniFixture, EventRegistrationCoversFutureRegistrationsOnly) {
  // The NIST-reported anomaly: a user whose notification request arrives
  // after the manager registered gets NO event about the existing
  // registration; only its explicit lookup (PR2) retrieves it.
  build(1, 1);
  simulator.run_until(seconds(100));
  EXPECT_EQ(network.counters().of_type(msg::kRemoteEvent), 0u);
  ASSERT_TRUE(users[0]->cached().has_value());  // via lookup, not event
}

TEST_F(JiniFixture, LeasesAreRenewedAcrossTheRun) {
  build(1, 1);
  simulator.run_until(seconds(5400));
  EXPECT_TRUE(registries[0]->has_registration(1));
  EXPECT_EQ(registries[0]->event_registration_count(), 1u);
  EXPECT_GE(network.counters().of_type(msg::kRenewRegistration), 5u);
  EXPECT_GE(network.counters().of_type(msg::kRenewEvent), 5u);
}

TEST_F(JiniFixture, RegistryTechniquesMatchTable2) {
  using discovery::RecoveryTechnique;
  EXPECT_EQ(JiniRegistry::techniques(),
            (discovery::TechniqueSet{
                RecoveryTechnique::kSRN1, RecoveryTechnique::kSRC1,
                RecoveryTechnique::kSRC2, RecoveryTechnique::kPR1,
                RecoveryTechnique::kPR2, RecoveryTechnique::kPR3}));
}

TEST_F(JiniFixture, UserIgnoresNonMatchingServices) {
  build(1, 0);
  auto stranger = std::make_unique<JiniUser>(
      simulator, network, 30, Template{"Camera", "PanTilt"}, JiniConfig{},
      &observer);
  stranger->start();
  simulator.run_until(seconds(200));
  EXPECT_TRUE(stranger->knows_registry(1));
  EXPECT_FALSE(stranger->cached().has_value());
  manager->change_service(1);
  simulator.run_until(seconds(400));
  EXPECT_FALSE(stranger->cached().has_value());
}

TEST_F(JiniFixture, MultipleChangesConvergeToLatest) {
  build(1, 3);
  simulator.run_until(seconds(100));
  manager->change_service(1);
  simulator.run_until(seconds(600));
  manager->change_service(1);
  simulator.run_until(seconds(1200));
  for (const auto& u : users) {
    EXPECT_EQ(u->cached()->version, 3u);
  }
}

}  // namespace
}  // namespace sdcm::jini
