#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sdcm/discovery/observer.hpp"
#include "sdcm/frodo/manager.hpp"
#include "sdcm/frodo/registry_node.hpp"
#include "sdcm/frodo/user.hpp"
#include "sdcm/net/network.hpp"

namespace sdcm::frodo {
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

Matching printer_req() { return Matching{"Printer", "ColorPrinter"}; }

/// The paper's topology (a): 1 300D Registry, 1 3D Manager, 5 3D Users.
struct ThreePartyFixture : ::testing::Test {
  sim::Simulator simulator{4242};
  net::Network network{simulator};
  discovery::ConsistencyObserver observer;
  std::unique_ptr<FrodoRegistryNode> registry;  // node 1
  std::unique_ptr<FrodoManager> manager;        // node 10
  std::vector<std::unique_ptr<FrodoUser>> users;  // nodes 11..

  void build(std::size_t n_users, FrodoConfig config = {},
             bool critical = false) {
    registry = std::make_unique<FrodoRegistryNode>(simulator, network, 1, 100,
                                                   config);
    manager = std::make_unique<FrodoManager>(simulator, network, 10,
                                             DeviceClass::k3D, config,
                                             &observer);
    manager->add_service(printer_sd(), critical);
    for (std::size_t i = 0; i < n_users; ++i) {
      users.push_back(std::make_unique<FrodoUser>(
          simulator, network, static_cast<NodeId>(11 + i), DeviceClass::k3D,
          printer_req(), config, &observer));
    }
    registry->start();
    manager->start();
    for (auto& u : users) u->start();
  }
};

TEST_F(ThreePartyFixture, DiscoveryCompletesWithinPaperWindow) {
  build(5);
  simulator.run_until(seconds(100));
  EXPECT_TRUE(registry->is_central());
  EXPECT_TRUE(manager->is_registered(1));
  EXPECT_TRUE(registry->has_registration(1));
  for (const auto& u : users) {
    ASSERT_TRUE(u->cached().has_value());
    EXPECT_EQ(u->cached()->version, 1u);
    EXPECT_TRUE(u->is_subscribed());
    EXPECT_FALSE(u->two_party());
  }
  EXPECT_EQ(registry->subscription_count(1), 5u);
  EXPECT_EQ(registry->interest_count(), 5u);
}

TEST_F(ThreePartyFixture, UpdatePropagatesViaCentral) {
  build(5);
  simulator.run_until(seconds(100));
  manager->change_service(1, {{"PaperSize", "Letter"}});
  simulator.run_until(seconds(200));
  for (const auto& u : users) {
    ASSERT_TRUE(u->cached().has_value());
    EXPECT_EQ(u->cached()->version, 2u);
    EXPECT_EQ(u->cached()->attributes.at("PaperSize"), "Letter");
  }
}

TEST_F(ThreePartyFixture, UpdateTransactionIsNPlus2Messages) {
  // Table 2: FRODO propagates N + 2 update messages - ServiceUpdate
  // Manager->Central, UpdateAck Central->Manager, and N ServiceUpdates
  // Central->Users. User acks are control traffic (DESIGN.md decision 2).
  build(5);
  simulator.run_until(seconds(100));
  EXPECT_EQ(network.counters().of_class(net::MessageClass::kUpdate), 0u);
  manager->change_service(1);
  simulator.run_until(seconds(200));
  EXPECT_EQ(network.counters().of_class(net::MessageClass::kUpdate), 7u);
  EXPECT_EQ(network.counters().of_type(msg::kServiceUpdate), 6u);
  EXPECT_EQ(network.counters().of_type(msg::kUpdateAck), 1u);
  EXPECT_EQ(network.counters().of_type(msg::kClientUpdateAck), 5u);
  // FRODO uses no TCP at all (Table 3).
  EXPECT_EQ(network.counters().of_class(net::MessageClass::kTransport), 0u);
}

TEST_F(ThreePartyFixture, UpdateLatencyIsMilliseconds) {
  // UDP + direct propagation: consistency in well under a second at
  // lambda = 0 (FRODO's responsiveness edge in Figure 5).
  build(5);
  simulator.run_until(seconds(100));
  manager->change_service(1);
  simulator.run_until(seconds(101));
  const auto change = observer.change_time(2);
  ASSERT_TRUE(change.has_value());
  for (const auto& u : users) {
    const auto reached = observer.reach_time(u->id(), 2);
    ASSERT_TRUE(reached.has_value());
    EXPECT_LT(*reached - *change, sim::milliseconds(100));
  }
}

TEST_F(ThreePartyFixture, LeasesSurviveTheFullRun) {
  build(1);
  simulator.run_until(seconds(5400));
  EXPECT_TRUE(registry->has_registration(1));
  EXPECT_EQ(registry->subscription_count(1), 1u);
  EXPECT_TRUE(users[0]->is_subscribed());
}

TEST_F(ThreePartyFixture, RenewalsAreNotAcknowledged) {
  // Figure 1 shows SubscriptionRenew without an ack: renewals flow, but
  // no ack or resubscription traffic answers them in steady state.
  build(1);
  simulator.run_until(seconds(2000));
  EXPECT_GE(network.counters().of_type(msg::kSubscriptionRenew), 2u);
  EXPECT_EQ(network.counters().of_type(msg::kResubscribeRequest), 0u);
}

TEST_F(ThreePartyFixture, SubscriptionExpiresWithoutRenewal) {
  build(1);
  simulator.run_until(seconds(100));
  ASSERT_EQ(registry->subscription_count(1), 1u);
  network.interface(11).set_tx(false);  // renewals stop reaching the Central
  simulator.run_until(seconds(3000));
  EXPECT_EQ(registry->subscription_count(1), 0u);
}

TEST_F(ThreePartyFixture, CriticalUpdateUsesSrc1AndSrc2) {
  FrodoConfig config;
  build(1, config, /*critical=*/true);
  simulator.run_until(seconds(100));

  // The user misses v2 entirely (receiver down) but its transmitter still
  // renews the subscription, so the Central keeps retrying (SRC1 has no
  // retransmission limit) until the receiver recovers.
  network.interface(11).set_rx(false);
  manager->change_service(1);
  simulator.run_until(seconds(300));
  EXPECT_EQ(users[0]->cached()->version, 1u);
  network.interface(11).set_rx(true);
  simulator.run_until(seconds(400));
  EXPECT_EQ(users[0]->cached()->version, 2u);

  // SRC2: two further changes while the receiver is down again; on
  // recovery the user must obtain the *complete* history.
  network.interface(11).set_rx(false);
  manager->change_service(1);
  simulator.run_until(seconds(500));
  manager->change_service(1);
  simulator.run_until(seconds(600));
  network.interface(11).set_rx(true);
  simulator.run_until(seconds(1000));
  EXPECT_EQ(users[0]->cached()->version, 4u);
  EXPECT_TRUE(users[0]->versions_seen().contains(3));  // gap recovered
}

TEST(FrodoAnnouncing, StopsOnceTheCentralIsKnown) {
  // Clients announce "until the Registry is discovered". Once every
  // client of topology (a) knows the Central, the run must fire exactly
  // the events of a run whose announce period outlasts it: a timer left
  // ticking as a no-op would add one event per client every 120 s.
  const auto events_after_discovery = [](sim::SimDuration announce_period) {
    sim::Simulator simulator(4242);
    net::Network network(simulator);
    discovery::ConsistencyObserver observer;
    FrodoConfig config;
    config.node_announce_period = announce_period;
    FrodoRegistryNode registry(simulator, network, 1, 100, config);
    FrodoManager manager(simulator, network, 10, DeviceClass::k3D, config,
                         &observer);
    manager.add_service(printer_sd());
    std::vector<std::unique_ptr<FrodoUser>> users;
    for (NodeId id = 11; id < 16; ++id) {
      users.push_back(std::make_unique<FrodoUser>(
          simulator, network, id, DeviceClass::k3D, printer_req(), config,
          &observer));
    }
    registry.start();
    manager.start();
    for (auto& u : users) u->start();

    simulator.run_until(seconds(100));
    EXPECT_TRUE(manager.has_central());
    for (const auto& u : users) EXPECT_TRUE(u->has_central());
    const std::uint64_t discovered = simulator.kernel_stats().events_fired;
    simulator.run_until(seconds(5400));
    return simulator.kernel_stats().events_fired - discovered;
  };

  EXPECT_EQ(events_after_discovery(FrodoConfig{}.node_announce_period),
            events_after_discovery(seconds(10'000)));
}

/// Every NotificationRequest the Central (node 1) accepts, with the
/// version its User declared and the instant it was handled.
struct InterestLog : net::WireProbe {
  struct Arrival {
    NodeId user;
    discovery::ServiceVersion known_version;
    sim::SimTime at;
  };
  std::vector<Arrival> arrivals;

  void on_send(const net::Message&, bool, sim::SimTime) override {}
  void on_arrival(const net::Message& m, bool rx_up, bool lost,
                  sim::SimTime at) override {
    if (m.type != msg::kNotificationRequest || m.dst != 1 || !rx_up || lost) {
      return;
    }
    const auto& req = m.as<NotificationRequest>();
    arrivals.push_back({req.user, req.known_version, at});
  }
};

/// A build(5) run to 100 s as the Central saw it: the interests it
/// accepted, the notifications it sent, and when it first stored the
/// Manager's registration.
struct InterestRun {
  std::vector<InterestLog::Arrival> arrivals;
  std::vector<std::pair<NodeId, sim::SimTime>> sent;
  sim::SimTime registration = std::numeric_limits<sim::SimTime>::max();

  [[nodiscard]] std::ptrdiff_t notified_at(NodeId user,
                                           sim::SimTime at) const {
    return std::count(sent.begin(), sent.end(), std::pair{user, at});
  }
};

InterestRun run_interests(ThreePartyFixture& f) {
  InterestLog log;
  f.network.set_wire_probe(&log);
  f.build(5);
  f.simulator.run_until(seconds(100));
  f.network.set_wire_probe(nullptr);
  InterestRun out;
  out.arrivals = std::move(log.arrivals);
  for (const sim::TraceRecord& r : f.simulator.trace().records()) {
    if (r.event == "frodo.registered") {
      out.registration = std::min(out.registration, r.at);
    } else if (r.event == "frodo.notify.tx") {
      out.sent.emplace_back(*r.detail.peer(), r.at);
    }
  }
  return out;
}

TEST_F(ThreePartyFixture, InterestNotificationSkipsKnownVersions) {
  // Once the Central holds the registration, an interest from a User
  // that declares v1 gets no PR1 notification (count preservation at
  // lambda = 0); one from a User holding nothing is notified at once.
  const InterestRun run = run_interests(*this);
  std::size_t skipped = 0;
  for (const InterestLog::Arrival& a : run.arrivals) {
    if (a.at <= run.registration) continue;
    if (a.known_version >= 1) {
      ++skipped;
      EXPECT_EQ(run.notified_at(a.user, a.at), 0) << "user " << a.user;
    } else {
      EXPECT_EQ(run.notified_at(a.user, a.at), 1) << "user " << a.user;
    }
  }
  EXPECT_GE(skipped, 1u) << "no interest declaring v1 met the registration";
  EXPECT_EQ(run.sent.size(),
            network.counters().of_type(msg::kServiceNotification));
}

TEST_F(ThreePartyFixture, RegistrationNotifiesEarlierInterestsBlindly) {
  // Known defect (ROADMAP): the Central stores an interest without the
  // version its User declared. An interest that arrives before the
  // Manager's registration is therefore notified when the registration
  // lands, even when its User declared v1 - a redundant notification.
  // At this seed every User gets v1 from the Manager directly before
  // the Central is elected, and some interests beat the registration.
  const InterestRun run = run_interests(*this);
  std::size_t early = 0;
  for (const InterestLog::Arrival& a : run.arrivals) {
    if (a.at >= run.registration || a.known_version == 0) continue;
    ++early;
    EXPECT_EQ(run.notified_at(a.user, run.registration), 1)
        << "user " << a.user;
  }
  EXPECT_GE(early, 1u);
}

TEST_F(ThreePartyFixture, LateUserIsNotifiedOfExistingRegistration) {
  // FRODO's PR1 improvement over Jini: an interest registered after the
  // service is already there gets an immediate notification when it holds
  // nothing (known_version = 0)... via the search path or notification -
  // either way the late user converges quickly.
  build(1);
  simulator.run_until(seconds(100));
  auto late = std::make_unique<FrodoUser>(simulator, network, 20,
                                          DeviceClass::k3D, printer_req(),
                                          FrodoConfig{}, &observer);
  late->start();
  simulator.run_until(seconds(200));
  ASSERT_TRUE(late->cached().has_value());
  EXPECT_EQ(late->cached()->version, 1u);
  EXPECT_TRUE(late->is_subscribed());
}

TEST_F(ThreePartyFixture, TechniquesMatchTable2) {
  using discovery::RecoveryTechnique;
  EXPECT_EQ(FrodoRegistryNode::techniques(),
            (discovery::TechniqueSet{
                RecoveryTechnique::kSRN1, RecoveryTechnique::kSRN2,
                RecoveryTechnique::kSRC1, RecoveryTechnique::kSRC2,
                RecoveryTechnique::kPR1, RecoveryTechnique::kPR3,
                RecoveryTechnique::kPR4, RecoveryTechnique::kPR5}));
}

}  // namespace
}  // namespace sdcm::frodo
