#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sdcm/discovery/observer.hpp"
#include "sdcm/upnp/manager.hpp"
#include "sdcm/upnp/user.hpp"

namespace sdcm::upnp {
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

Requirement printer_req() { return Requirement{"Printer", "ColorPrinter"}; }

struct UpnpFixture : ::testing::Test {
  sim::Simulator simulator{2024};
  net::Network network{simulator};
  discovery::ConsistencyObserver observer;
  std::unique_ptr<UpnpManager> manager;
  std::vector<std::unique_ptr<UpnpUser>> users;

  void build(std::size_t n_users, UpnpConfig config = {}) {
    manager = std::make_unique<UpnpManager>(simulator, network, 1, config,
                                            &observer);
    manager->add_service(printer_sd());
    for (std::size_t i = 0; i < n_users; ++i) {
      users.push_back(std::make_unique<UpnpUser>(
          simulator, network, static_cast<NodeId>(2 + i), printer_req(),
          config, &observer));
    }
    manager->start();
    for (auto& u : users) u->start();
  }
};

TEST_F(UpnpFixture, DiscoveryFetchesDescriptionAndSubscribes) {
  build(1);
  simulator.run_until(seconds(100));
  ASSERT_TRUE(users[0]->has_manager());
  EXPECT_EQ(users[0]->manager(), 1u);
  ASSERT_TRUE(users[0]->cached().has_value());
  EXPECT_EQ(users[0]->cached()->version, 1u);
  EXPECT_EQ(users[0]->cached()->device_type, "Printer");
  EXPECT_TRUE(users[0]->is_subscribed());
  EXPECT_EQ(manager->subscriber_count(1), 1u);
  EXPECT_EQ(observer.reach_time(2, 1).has_value(), true);
}

TEST_F(UpnpFixture, DiscoveryCompletesWithinPaperWindow) {
  // Section 5 Step 5: "Five Users discover the Manager and obtain the
  // service description. This process occurs within the first 100 s."
  build(5);
  simulator.run_until(seconds(100));
  for (const auto& u : users) {
    ASSERT_TRUE(u->cached().has_value());
    EXPECT_TRUE(u->is_subscribed());
  }
  EXPECT_EQ(manager->subscriber_count(1), 5u);
}

TEST_F(UpnpFixture, ChangePropagatesViaInvalidationAndRefetch) {
  build(1);
  simulator.run_until(seconds(100));
  manager->change_service(1, {{"PaperSize", "Letter"}});
  simulator.run_until(seconds(200));
  ASSERT_TRUE(users[0]->cached().has_value());
  EXPECT_EQ(users[0]->cached()->version, 2u);
  EXPECT_EQ(users[0]->cached()->attributes.at("PaperSize"), "Letter");
  ASSERT_TRUE(observer.reach_time(2, 2).has_value());
  EXPECT_GT(*observer.reach_time(2, 2), *observer.change_time(2));
}

TEST_F(UpnpFixture, UpdateTransactionIs3NDiscoveryLayerMessages) {
  // Table 2: UPnP needs 3N update messages without TCP accounting
  // (NOTIFY + GET + response per user).
  build(5);
  simulator.run_until(seconds(100));
  const auto before = network.counters().of_class(net::MessageClass::kUpdate);
  EXPECT_EQ(before, 0u);
  manager->change_service(1);
  simulator.run_until(seconds(200));
  EXPECT_EQ(network.counters().of_class(net::MessageClass::kUpdate), 15u);
  EXPECT_EQ(network.counters().of_type(msg::kNotify), 5u);
  // TCP segments were spent too (the "with TCP messages" accounting).
  EXPECT_GT(network.counters().of_class(net::MessageClass::kTransport), 0u);
}

TEST_F(UpnpFixture, AnnouncementsAreSixFoldEvery1800s) {
  build(0);
  simulator.run_until(seconds(3700));
  // t = 0, 1800, 3600 -> 3 announcements x 6 redundant copies.
  EXPECT_EQ(network.counters().of_type(msg::kAlive), 18u);
}

TEST_F(UpnpFixture, RenewalKeepsSubscriptionAlive) {
  build(1);
  simulator.run_until(seconds(5400));
  // Lease 1800 s, renewed at 900 s cadence: still subscribed at the end.
  EXPECT_TRUE(users[0]->is_subscribed());
  EXPECT_EQ(manager->subscriber_count(1), 1u);
  EXPECT_GE(network.counters().of_type(msg::kRenew), 5u);
}

TEST_F(UpnpFixture, SearchIgnoredWhenRequirementDoesNotMatch) {
  manager = std::make_unique<UpnpManager>(simulator, network, 1, UpnpConfig{},
                                          &observer);
  manager->add_service(printer_sd());
  UpnpConfig config;
  auto stranger = std::make_unique<UpnpUser>(
      simulator, network, 9, Requirement{"Camera", "PanTilt"}, config,
      &observer);
  manager->start();
  stranger->start();
  simulator.run_until(seconds(400));
  EXPECT_FALSE(stranger->has_manager());
  EXPECT_FALSE(stranger->cached().has_value());
  EXPECT_EQ(network.counters().of_type(msg::kSearchResponse), 0u);
}

TEST_F(UpnpFixture, ByeByePurgesUser) {
  build(1);
  simulator.run_until(seconds(100));
  ASSERT_TRUE(users[0]->has_manager());
  manager->shutdown();
  simulator.run_until(seconds(200));
  EXPECT_FALSE(users[0]->has_manager());
  EXPECT_FALSE(users[0]->cached().has_value());
  EXPECT_FALSE(users[0]->is_subscribed());
}

TEST_F(UpnpFixture, SubscriptionExpiresAtManagerWithoutRenewal) {
  build(1);
  simulator.run_until(seconds(100));
  ASSERT_EQ(manager->subscriber_count(1), 1u);
  // Cut the user's transmitter forever: renewals stop reaching the
  // manager, whose lease state must expire ~1800 s after the last renewal.
  network.interface(2).set_tx(false);
  simulator.run_until(seconds(3000));
  EXPECT_EQ(manager->subscriber_count(1), 0u);
}

TEST_F(UpnpFixture, ManagerTechniquesMatchTable2) {
  using discovery::RecoveryTechnique;
  EXPECT_EQ(UpnpManager::techniques(),
            (discovery::TechniqueSet{
                RecoveryTechnique::kSRC1, RecoveryTechnique::kSRN1,
                RecoveryTechnique::kPR4, RecoveryTechnique::kPR5}));
}

TEST_F(UpnpFixture, UnknownServiceQueriesAreRejected) {
  build(1);
  simulator.run_until(seconds(100));
  EXPECT_THROW(manager->change_service(42), std::out_of_range);
  EXPECT_THROW(static_cast<void>(manager->service(42)), std::out_of_range);
}

TEST_F(UpnpFixture, MultipleChangesConvergeToLatest) {
  build(3);
  simulator.run_until(seconds(100));
  manager->change_service(1, {{"PaperSize", "Letter"}});
  simulator.run_until(seconds(600));
  manager->change_service(1, {{"PaperSize", "A3"}});
  simulator.run_until(seconds(1200));
  for (const auto& u : users) {
    ASSERT_TRUE(u->cached().has_value());
    EXPECT_EQ(u->cached()->version, 3u);
    EXPECT_EQ(u->cached()->attributes.at("PaperSize"), "A3");
  }
}

}  // namespace
}  // namespace sdcm::upnp
