#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "sdcm/discovery/observer.hpp"
#include "sdcm/frodo/manager.hpp"
#include "sdcm/frodo/registry_node.hpp"
#include "sdcm/frodo/user.hpp"
#include "sdcm/net/failure_model.hpp"

namespace sdcm::frodo {
namespace {

using discovery::ServiceDescription;
using sim::seconds;

/// 3-party recovery scenarios (topology (a)).
struct FrodoRecoveryFixture : ::testing::Test {
  sim::Simulator simulator{31337};
  net::Network network{simulator};
  discovery::ConsistencyObserver observer;
  std::unique_ptr<FrodoRegistryNode> registry;  // node 1
  std::unique_ptr<FrodoManager> manager;        // node 10
  std::unique_ptr<FrodoUser> user;              // node 11

  void build(FrodoConfig config = {}) {
    ServiceDescription sd;
    sd.id = 1;
    sd.device_type = "Printer";
    sd.service_type = "ColorPrinter";
    registry = std::make_unique<FrodoRegistryNode>(simulator, network, 1, 100,
                                                   config);
    manager = std::make_unique<FrodoManager>(simulator, network, 10,
                                             DeviceClass::k3D, config,
                                             &observer);
    manager->add_service(sd);
    user = std::make_unique<FrodoUser>(simulator, network, 11,
                                       DeviceClass::k3D,
                                       Matching{"Printer", "ColorPrinter"},
                                       config, &observer);
    registry->start();
    manager->start();
    user->start();
  }

  void fail(net::NodeId node, net::FailureMode mode, sim::SimTime start,
            sim::SimDuration duration) {
    net::FailureEpisode ep;
    ep.node = node;
    ep.mode = mode;
    ep.start = start;
    ep.duration = duration;
    net::apply_failures(simulator, network, std::array{ep});
  }
};

TEST_F(FrodoRecoveryFixture, PR1ManagerReRegistersChangedService) {
  // The Central is unreachable when the service changes; the Manager's
  // update exhausts SRN1 and the Central is eventually purged for
  // silence. When the Central recovers and announces, the Manager
  // re-registers the changed description and the Central notifies the
  // interested User (PR1, Figure 4(ii)).
  build();
  fail(1, net::FailureMode::kBoth, seconds(150), seconds(2500));
  simulator.schedule_at(seconds(300), [&] { manager->change_service(1); });

  simulator.run_until(seconds(2600));
  EXPECT_EQ(user->cached()->version, 1u);
  simulator.run_until(seconds(5400));
  EXPECT_EQ(user->cached()->version, 2u);
  EXPECT_GE(simulator.trace().count_event("frodo.notify.tx"), 1u);
}

TEST_F(FrodoRecoveryFixture, SilentCentralIsPurgedAndAnnouncingResumes) {
  // Announcing stops once a Central is known, so the purge must restart
  // it. The Central dies for good at 200 s: both clients stay silent
  // while they still trust it, purge it central_timeout (1800 s) after
  // its last word, and from then on each multicasts NodeAnnounce every
  // node_announce_period (120 s).
  build();
  const FrodoConfig config;
  fail(1, net::FailureMode::kBoth, seconds(200), seconds(5200));
  simulator.run_until(seconds(200));
  ASSERT_TRUE(manager->has_central());
  ASSERT_TRUE(user->has_central());
  const net::MessageCounters& counters = network.counters();
  const std::uint64_t at_death = counters.of_type(msg::kNodeAnnounce);

  simulator.run_until(config.central_timeout);  // no purge this early
  EXPECT_TRUE(manager->has_central());
  EXPECT_TRUE(user->has_central());
  EXPECT_EQ(counters.of_type(msg::kNodeAnnounce), at_death);

  simulator.run_until(seconds(2100));
  ASSERT_FALSE(manager->has_central());
  ASSERT_FALSE(user->has_central());
  const std::uint64_t purged = counters.of_type(msg::kNodeAnnounce);
  EXPECT_GE(purged, at_death + 2);  // one at once from each client
  constexpr int kPeriods = 10;
  simulator.run_until(seconds(2100) + kPeriods * config.node_announce_period);
  EXPECT_EQ(counters.of_type(msg::kNodeAnnounce), purged + 2 * kPeriods);
}

TEST(FrodoPr1Ablation, WithoutPR1RecoveryIsStrictlySlower) {
  // The Figure 7 ablation: without PR1 the same manager-outage scenario
  // still recovers eventually (the User's periodic PR5 search is a
  // backstop), but strictly later than the PR1 notification delivers it.
  const auto run = [](bool enable_pr1) {
    sim::Simulator simulator(31337);
    net::Network network(simulator);
    discovery::ConsistencyObserver observer;
    FrodoConfig config;
    config.enable_pr1 = enable_pr1;

    ServiceDescription sd;
    sd.id = 1;
    sd.device_type = "Printer";
    sd.service_type = "ColorPrinter";
    FrodoRegistryNode registry(simulator, network, 1, 100, config);
    FrodoManager manager(simulator, network, 10, DeviceClass::k3D, config,
                         &observer);
    manager.add_service(sd);
    FrodoUser user(simulator, network, 11, DeviceClass::k3D,
                   Matching{"Printer", "ColorPrinter"}, config, &observer);
    registry.start();
    manager.start();
    user.start();

    net::FailureEpisode ep;
    ep.node = 10;
    ep.mode = net::FailureMode::kTransmitter;
    ep.start = seconds(150);
    ep.duration = seconds(2500);
    net::apply_failures(simulator, network, std::array{ep});
    simulator.schedule_at(seconds(300), [&] { manager.change_service(1); });
    simulator.run_until(seconds(5400));
    return observer.reach_time(11, 2);
  };

  const auto with_pr1 = run(true);
  const auto without_pr1 = run(false);
  ASSERT_TRUE(with_pr1.has_value());
  ASSERT_TRUE(without_pr1.has_value());
  EXPECT_LT(*with_pr1, *without_pr1);
}

TEST_F(FrodoRecoveryFixture, PR3ResubscriptionResponseCarriesUpdate) {
  // Pure PR3: the User's transmitter is down long enough for its
  // subscription to lapse at the Central while its receiver stays up
  // (it keeps hearing announcements, so the Central is never purged and
  // no rediscovery path interferes). A brief receiver outage makes it
  // miss the v2 propagation (SRN1 exhausted; no SRN2 at the Central).
  // When the transmitter recovers, the next blind renewal reaches the
  // Central, which does not know the subscription any more and answers
  // with a ResubscribeRequest; the resubscription ack carries v2.
  build();
  fail(11, net::FailureMode::kTransmitter, seconds(950), seconds(2600));
  fail(11, net::FailureMode::kReceiver, seconds(1490), seconds(30));
  simulator.schedule_at(seconds(1500), [&] { manager->change_service(1); });
  simulator.run_until(seconds(5400));
  EXPECT_EQ(user->cached()->version, 2u);
  EXPECT_GE(simulator.trace().count_event("frodo.resubscribe.request"), 1u);
  EXPECT_TRUE(user->is_subscribed());
  const auto reached = observer.reach_time(11, 2);
  ASSERT_TRUE(reached.has_value());
  EXPECT_GT(*reached, seconds(3550));  // only after the tx recovered
}

TEST_F(FrodoRecoveryFixture, ServicePurgedTriggersPR5Rediscovery) {
  // The Manager dies; its registration lapses at the Central, which tells
  // the subscribed User (ServicePurged). The User purges and keeps
  // searching; when the Manager recovers it re-registers (with the change
  // it made while isolated) and the User's search finds version 2.
  build();
  fail(10, net::FailureMode::kBoth, seconds(200), seconds(3000));
  simulator.schedule_at(seconds(1000), [&] { manager->change_service(1); });
  simulator.run_until(seconds(5400));
  ASSERT_TRUE(user->cached().has_value());
  EXPECT_EQ(user->cached()->version, 2u);
  EXPECT_GE(simulator.trace().count_event("frodo.manager.purged"), 1u);
}

TEST_F(FrodoRecoveryFixture, ShortOutageBridgedBySrn1Retransmissions) {
  // An outage shorter than SRN1's retry window (3 retries x 2 s): the
  // update is delivered by a protocol-level retransmission, with no TCP
  // anywhere (Table 3).
  build();
  fail(11, net::FailureMode::kReceiver, seconds(199), seconds(4));
  simulator.schedule_at(seconds(200), [&] { manager->change_service(1); });
  simulator.run_until(seconds(300));
  EXPECT_EQ(user->cached()->version, 2u);
  const auto reached = observer.reach_time(11, 2);
  ASSERT_TRUE(reached.has_value());
  EXPECT_LT(*reached, seconds(207));
  EXPECT_EQ(network.counters().of_class(net::MessageClass::kTransport), 0u);
}

TEST_F(FrodoRecoveryFixture, UserOfflineThroughChangeRecovers) {
  // Full user blackout across the change; multiple recovery paths can
  // serve it afterwards (PR3 resubscription, PR1 notification); verify
  // eventual consistency - the Configuration Update Principles.
  build();
  fail(11, net::FailureMode::kBoth, seconds(500), seconds(2500));
  simulator.schedule_at(seconds(1000), [&] { manager->change_service(1); });
  simulator.run_until(seconds(5400));
  EXPECT_EQ(user->cached()->version, 2u);
}

TEST_F(FrodoRecoveryFixture, CentralOutageDelaysButDoesNotLoseUpdate) {
  build();
  fail(1, net::FailureMode::kBoth, seconds(500), seconds(2000));
  simulator.schedule_at(seconds(600), [&] { manager->change_service(1); });
  simulator.run_until(seconds(5400));
  EXPECT_EQ(user->cached()->version, 2u);
  ASSERT_TRUE(observer.reach_time(11, 2).has_value());
  EXPECT_GT(*observer.reach_time(11, 2), seconds(2500));
}

TEST_F(FrodoRecoveryFixture, ManagerTxOutagePaperExampleTiming) {
  // The Section 6.2 example's Manager failure window (tx down 381-1191 at
  // lambda = 0.15) must be harmless in FRODO when the change happens
  // after recovery - and the registration must survive via renewals.
  build();
  fail(10, net::FailureMode::kTransmitter, seconds(381), seconds(810));
  simulator.schedule_at(seconds(2507), [&] { manager->change_service(1); });
  simulator.run_until(seconds(5400));
  EXPECT_EQ(user->cached()->version, 2u);
  const auto reached = observer.reach_time(11, 2);
  ASSERT_TRUE(reached.has_value());
  EXPECT_LT(*reached - seconds(2507), seconds(1));
}

}  // namespace
}  // namespace sdcm::frodo
