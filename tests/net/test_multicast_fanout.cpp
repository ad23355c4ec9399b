// Interest-scoped multicast fan-out (DESIGN.md section 14): routing by
// declared interest against a naive per-node filter, at 40 and at 10^3
// nodes, the subscriber-only RNG discipline, the
// udp_deliveries_skipped counter, and the closure-size / reserve_nodes
// regressions fixed alongside the scoping work.

#include "sdcm/net/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

namespace sdcm::net {
namespace {

using sim::seconds;

/// A sink with a declared (or universal) interest set and an inbox.
struct InterestedSink final : MessageSink {
  std::optional<std::vector<MessageType>> interests;
  std::vector<Message> inbox;
  std::vector<sim::SimTime> arrivals;
  sim::Simulator* clock = nullptr;

  void handle_message(const Message& msg) override {
    inbox.push_back(msg);
    if (clock != nullptr) arrivals.push_back(clock->now());
  }

  [[nodiscard]] std::optional<std::vector<MessageType>> multicast_interests()
      const override {
    return interests;
  }
};

Message multicast_msg(NodeId src, std::string_view type) {
  Message m;
  m.src = src;
  m.dst = sim::kNoNode;
  m.type = MessageType::intern(type);
  m.klass = MessageClass::kDiscovery;
  return m;
}

struct MulticastScopeFixture : ::testing::Test {
  sim::Simulator simulator{777};
  Network network{simulator};
  InterestedSink sender;      // node 1, universal
  InterestedSink wants_a;     // node 2, subscribes "scope.a"
  InterestedSink wants_b;     // node 3, subscribes "scope.b"
  InterestedSink universal;   // node 4, nullopt = everything
  InterestedSink wants_none;  // node 5, engaged empty = no multicast

  void SetUp() override {
    wants_a.interests = std::vector<MessageType>{MessageType::intern("scope.a")};
    wants_b.interests = std::vector<MessageType>{MessageType::intern("scope.b")};
    wants_none.interests = std::vector<MessageType>{};
    network.attach(1, sender);
    network.attach(2, wants_a);
    network.attach(3, wants_b);
    network.attach(4, universal);
    network.attach(5, wants_none);
  }
};

TEST_F(MulticastScopeFixture, ScopedRoutesByDeclaredInterest) {
  network.multicast(multicast_msg(1, "scope.a"));
  simulator.run_until(seconds(1));
  EXPECT_TRUE(sender.inbox.empty());  // never back to the source
  EXPECT_EQ(wants_a.inbox.size(), 1u);
  EXPECT_TRUE(wants_b.inbox.empty());
  EXPECT_EQ(universal.inbox.size(), 1u);
  EXPECT_TRUE(wants_none.inbox.empty());
  // Two of the four destinations were uninterested.
  EXPECT_EQ(simulator.kernel_stats().udp_deliveries_skipped, 2u);
}

TEST_F(MulticastScopeFixture, SkippedCountsPerCopyPerDestination) {
  // 6 redundant copies x 2 uninterested destinations.
  network.multicast(multicast_msg(1, "scope.a"), 6);
  simulator.run_until(seconds(1));
  EXPECT_EQ(wants_a.inbox.size(), 6u);
  EXPECT_EQ(simulator.kernel_stats().udp_deliveries_skipped, 12u);
}

TEST_F(MulticastScopeFixture, UnicastIsNeverFiltered) {
  Message m = multicast_msg(1, "scope.a");
  m.dst = 5;  // wants_none subscribed to no multicast at all
  network.send(m);
  simulator.run_until(seconds(1));
  EXPECT_EQ(wants_none.inbox.size(), 1u);
}

TEST_F(MulticastScopeFixture, SubscribersListedInAttachOrder) {
  EXPECT_EQ(network.multicast_subscribers(MessageType::intern("scope.a")),
            (std::vector<NodeId>{1, 2, 4}));
  EXPECT_EQ(network.multicast_subscribers(MessageType::intern("scope.b")),
            (std::vector<NodeId>{1, 3, 4}));
  // A type nobody declared still reaches the universal sinks.
  EXPECT_EQ(network.multicast_subscribers(MessageType::intern("scope.other")),
            (std::vector<NodeId>{1, 4}));
}

TEST_F(MulticastScopeFixture, DuplicateInterestDeclarationsCollapse) {
  // Declared through the sink: interests resolve at the first multicast.
  wants_a.interests = std::vector<MessageType>{MessageType::intern("scope.a"),
                                               MessageType::intern("scope.a")};
  ASSERT_TRUE(network.check_subscription_index());
  network.multicast(multicast_msg(1, "scope.a"));
  simulator.run_until(seconds(1));
  EXPECT_EQ(wants_a.inbox.size(), 1u);  // one delivery, not two
}

using Interests = std::optional<std::vector<MessageType>>;

/// One referee input: node `id` declares `interests[id - 1]`, and every
/// source multicasts every type `rounds` times.
struct RefereeInput {
  std::vector<Interests> interests;
  std::vector<NodeId> sources;
  std::vector<MessageType> types;
  int rounds = 1;
};

struct RefereeTotals {
  std::uint64_t delivered = 0;
  std::uint64_t skipped = 0;
};

/// Runs `input` on a fresh network and checks every inbox, and the
/// skips the network booked, against a naive filter over nodes(): a
/// node receives a multicast exactly when it is universal or its
/// declared interests include the type - never the source itself.
RefereeTotals referee(const RefereeInput& input) {
  const auto n = static_cast<NodeId>(input.interests.size());
  sim::Simulator simulator{2024};
  Network network{simulator};
  std::vector<InterestedSink> sinks(n);
  for (NodeId id = 1; id <= n; ++id) {
    sinks[id - 1].interests = input.interests[id - 1];
    network.attach(id, sinks[id - 1]);
  }

  std::vector<std::size_t> expected(n, 0);
  std::uint64_t expected_skipped = 0;
  for (int round = 0; round < input.rounds; ++round) {
    for (const NodeId src : input.sources) {
      for (const MessageType type : input.types) {
        network.multicast(multicast_msg(src, type.str()));
        for (const NodeId dst : network.nodes()) {
          if (dst == src) continue;
          const Interests& want = input.interests[dst - 1];
          const bool subscribed =
              !want.has_value() ||
              std::find(want->begin(), want->end(), type) != want->end();
          if (subscribed) {
            ++expected[dst - 1];
          } else {
            ++expected_skipped;
          }
        }
      }
    }
  }
  EXPECT_TRUE(network.check_subscription_index());
  simulator.run_until(seconds(1));

  RefereeTotals totals;
  for (NodeId id = 1; id <= n; ++id) {
    EXPECT_EQ(sinks[id - 1].inbox.size(), expected[id - 1]) << "node " << id;
    totals.delivered += sinks[id - 1].inbox.size();
  }
  totals.skipped = simulator.kernel_stats().udp_deliveries_skipped;
  EXPECT_EQ(totals.skipped, expected_skipped);
  return totals;
}

// The referee for the subscriber lists. Each input runs on its own
// network, because a node's interests resolve once.
TEST(MulticastReferee, DeliveriesMatchANaiveFilterOverNodes) {
  const std::vector<MessageType> types = {
      MessageType::intern("referee.a"), MessageType::intern("referee.b"),
      MessageType::intern("referee.c"), MessageType::intern("referee.d")};
  constexpr NodeId kNodes = 40;
  // Two hashed mixes of universal, narrow and silent nodes.
  for (const std::uint32_t salt : {0u, 12345u}) {
    RefereeInput mixed;
    mixed.types = types;
    for (NodeId id = 1; id <= kNodes; ++id) {
      const std::uint32_t bits = (id * 2654435761u + salt) >> 27;  // 5 bits
      if ((bits & 16u) != 0) {
        mixed.interests.emplace_back(std::nullopt);  // universal
        continue;
      }
      auto& declared = mixed.interests.emplace_back(std::vector<MessageType>{});
      for (std::uint32_t t = 0; t < 4; ++t) {
        if ((bits >> t) & 1u) declared->push_back(types[t]);
      }
    }
    for (NodeId src = 1; src <= kNodes; src += 7) mixed.sources.push_back(src);
    referee(mixed);
  }

  // A hub's 50 rounds to 10^3 sinks, all universal, then with only 16
  // subscribed and the rest declaring another type.
  RefereeInput hub;
  hub.sources = {1};
  hub.types = {MessageType::intern("referee.ping")};
  hub.rounds = 50;
  hub.interests.assign(1001, std::nullopt);
  EXPECT_EQ(referee(hub).delivered, 50000u);
  hub.interests.assign(
      1001, std::vector<MessageType>{MessageType::intern("referee.other")});
  for (std::size_t i = 1; i <= 16; ++i) hub.interests[i] = hub.types;
  const RefereeTotals scoped = referee(hub);
  EXPECT_EQ(scoped.delivered, 800u);
  EXPECT_EQ(scoped.skipped, 49200u);
}

// Only subscribers draw delay/loss: attaching a node that never
// subscribes between two subscribers leaves every subscriber's arrival
// time unchanged, draw for draw.
TEST(MulticastScopeRng, ScopedRngSkipsDrawsForUninterested) {
  std::vector<sim::SimTime> before_at[2], after_at[2];
  for (int with_skipped = 0; with_skipped < 2; ++with_skipped) {
    sim::Simulator simulator{424242};
    Network network{simulator};
    InterestedSink sender, before, skipped, after;
    before.clock = &simulator;
    skipped.interests = std::vector<MessageType>{};
    after.clock = &simulator;
    network.attach(1, sender);
    network.attach(2, before);
    if (with_skipped != 0) network.attach(3, skipped);
    network.attach(4, after);
    for (int k = 0; k < 50; ++k) {
      network.multicast(multicast_msg(1, "rng.skip"));
    }
    simulator.run_until(seconds(1));
    ASSERT_EQ(after.arrivals.size(), 50u);
    before_at[with_skipped] = before.arrivals;
    after_at[with_skipped] = after.arrivals;
  }
  EXPECT_EQ(before_at[0], before_at[1]);
  EXPECT_EQ(after_at[0], after_at[1]);
}

// Every multicast delivery closure must fit InlineCallback's buffer:
// the per-delivery heap allocation this PR removed was the single
// biggest run-loop cost at 10^4+ nodes.
TEST(MulticastScopeAlloc, DeliveryClosuresStayInline) {
  sim::Simulator simulator{99};
  Network network{simulator};
  InterestedSink sinks[12];
  for (NodeId id = 1; id <= 12; ++id) {
    network.attach(id, sinks[id - 1]);
  }
  network.set_message_loss_rate(0.25);  // the lossy path captures too
  for (int k = 0; k < 20; ++k) {
    network.multicast(multicast_msg(1, "alloc.pin"), 3);
  }
  simulator.run_until(seconds(1));
  EXPECT_EQ(simulator.kernel_stats().callback_heap_allocs, 0u);
}

// reserve_nodes(max_id) must cover id == max_id itself (it reserves
// max_id + 1 slots): attaching the last planned id used to reallocate
// the table, invalidating interface references held across the build.
TEST(MulticastScopeReserve, ReserveCoversTheLargestPlannedId) {
  sim::Simulator simulator{7};
  Network network{simulator};
  network.reserve_nodes(8);
  InterestedSink sinks[8];
  network.attach(1, sinks[0]);
  const InterfaceState* iface = &network.interface(1);
  const NodeId* order = network.nodes().data();
  for (NodeId id = 2; id <= 8; ++id) {
    network.attach(id, sinks[id - 1]);
  }
  EXPECT_EQ(&network.interface(1), iface);
  EXPECT_EQ(network.nodes().data(), order);
  EXPECT_EQ(network.nodes().size(), 8u);
}

}  // namespace
}  // namespace sdcm::net
