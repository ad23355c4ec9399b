#include "sdcm/net/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sdcm/obs/profiler.hpp"

namespace sdcm::net {
namespace {

using sim::seconds;

struct NetworkFixture : ::testing::Test {
  sim::Simulator simulator{12345};
  Network network{simulator};
  std::vector<Message> inbox1, inbox2, inbox3;

  void SetUp() override {
    network.attach(1, [this](const Message& m) { inbox1.push_back(m); });
    network.attach(2, [this](const Message& m) { inbox2.push_back(m); });
    network.attach(3, [this](const Message& m) { inbox3.push_back(m); });
  }

  static Message msg(NodeId src, NodeId dst, std::string_view type,
                     MessageClass klass = MessageClass::kControl) {
    Message m;
    m.src = src;
    m.dst = dst;
    m.type = MessageType::intern(type);
    m.klass = klass;
    return m;
  }
};

TEST_F(NetworkFixture, UnicastDelivers) {
  network.send(msg(1, 2, "hello"));
  simulator.run_until(seconds(1));
  ASSERT_EQ(inbox2.size(), 1u);
  EXPECT_EQ(inbox2[0].type_name(), "hello");
  EXPECT_EQ(inbox2[0].src, 1u);
  EXPECT_TRUE(inbox1.empty());
  EXPECT_TRUE(inbox3.empty());
}

TEST_F(NetworkFixture, DelayWithinTableThreeBounds) {
  // Table 3: transmission delay 10 us - 100 us.
  for (int i = 0; i < 200; ++i) {
    sim::Simulator s(static_cast<std::uint64_t>(i));
    Network n(s);
    sim::SimTime arrival = -1;
    n.attach(1, [](const Message&) {});
    n.attach(2, [&](const Message&) { arrival = s.now(); });
    Message m;
    m.src = 1;
    m.dst = 2;
    m.type = sdcm::net::MessageType::intern("t");
    n.send(m);
    s.run_until(seconds(1));
    ASSERT_GE(arrival, sim::microseconds(10));
    ASSERT_LE(arrival, sim::microseconds(100));
  }
  // Every subscriber of a multicast draws its own delay from the same
  // range, redundant copies included.
  for (int i = 0; i < 50; ++i) {
    sim::Simulator s(static_cast<std::uint64_t>(i));
    Network n(s);
    std::vector<sim::SimTime> arrivals;
    n.attach(1, [](const Message&) {});
    for (NodeId id = 2; id <= 6; ++id) {
      n.attach(id, [&](const Message&) { arrivals.push_back(s.now()); });
    }
    n.multicast(msg(1, 0, "t"), 6);
    s.run_until(seconds(1));
    ASSERT_EQ(arrivals.size(), 30u);
    for (const sim::SimTime arrival : arrivals) {
      ASSERT_GE(arrival, sim::microseconds(10));
      ASSERT_LE(arrival, sim::microseconds(100));
    }
  }
}

TEST_F(NetworkFixture, TransmitterDownLosesMessageSilently) {
  network.interface(1).set_tx(false);
  network.send(msg(1, 2, "lost"));
  simulator.run_until(seconds(1));
  EXPECT_TRUE(inbox2.empty());
  EXPECT_EQ(network.counters().total(), 0u);
}

TEST_F(NetworkFixture, ReceiverDownAtArrivalLosesMessage) {
  network.interface(2).set_rx(false);
  network.send(msg(1, 2, "lost"));
  simulator.run_until(seconds(1));
  EXPECT_TRUE(inbox2.empty());
  // The message did reach the wire, so it is counted.
  EXPECT_EQ(network.counters().total(), 1u);
}

TEST_F(NetworkFixture, ReceiverFailingMidFlightLosesMessage) {
  // rx goes down after the send but before the (>=10 us) arrival.
  network.send(msg(1, 2, "in-flight"));
  simulator.schedule_in(sim::microseconds(1),
                        [&] { network.interface(2).set_rx(false); });
  simulator.run_until(seconds(1));
  EXPECT_TRUE(inbox2.empty());
}

TEST_F(NetworkFixture, MulticastReachesAllOthers) {
  network.multicast(msg(1, 0, "announce", MessageClass::kDiscovery));
  simulator.run_until(seconds(1));
  EXPECT_TRUE(inbox1.empty());  // not delivered to the source
  ASSERT_EQ(inbox2.size(), 1u);
  ASSERT_EQ(inbox3.size(), 1u);
  EXPECT_TRUE(inbox2[0].via_multicast);
}

TEST_F(NetworkFixture, MulticastRedundancyDeliversCopies) {
  // UPnP/Jini redundantly transmit every multicast 6 times (Table 3).
  network.multicast(msg(1, 0, "announce", MessageClass::kDiscovery), 6);
  simulator.run_until(seconds(1));
  EXPECT_EQ(inbox2.size(), 6u);
  EXPECT_EQ(inbox3.size(), 6u);
  // Wire copies counted once each, independent of receiver count.
  EXPECT_EQ(network.counters().of_type("announce"), 6u);
}

TEST_F(NetworkFixture, MulticastWithTxDownCountsNothing) {
  network.interface(1).set_tx(false);
  network.multicast(msg(1, 0, "announce"), 6);
  simulator.run_until(seconds(1));
  EXPECT_TRUE(inbox2.empty());
  EXPECT_EQ(network.counters().total(), 0u);
}

TEST_F(NetworkFixture, MulticastPartialReceiverFailure) {
  network.interface(2).set_rx(false);
  network.multicast(msg(1, 0, "announce"));
  simulator.run_until(seconds(1));
  EXPECT_TRUE(inbox2.empty());
  EXPECT_EQ(inbox3.size(), 1u);
}

TEST_F(NetworkFixture, TransmitReportsDeliveryToCaller) {
  bool result = false;
  bool called = false;
  const bool left = network.transmit(msg(1, 2, "seg"), /*deliver=*/false,
                                     [&](bool ok) {
                                       called = true;
                                       result = ok;
                                     });
  simulator.run_until(seconds(1));
  EXPECT_TRUE(left);
  EXPECT_TRUE(called);
  EXPECT_TRUE(result);
  EXPECT_TRUE(inbox2.empty());  // deliver=false bypasses the handler
}

TEST_F(NetworkFixture, TransmitReportsTxFailure) {
  network.interface(1).set_tx(false);
  bool result = true;
  const bool left =
      network.transmit(msg(1, 2, "seg"), false, [&](bool ok) { result = ok; });
  simulator.run_until(seconds(1));
  EXPECT_FALSE(left);
  EXPECT_FALSE(result);
}

TEST_F(NetworkFixture, DeliverLocalBypassesInterfaces) {
  network.interface(1).set_tx(false);
  network.interface(2).set_rx(false);
  network.deliver_local(msg(1, 2, "direct"));
  ASSERT_EQ(inbox2.size(), 1u);
  EXPECT_EQ(network.counters().total(), 0u);
}

TEST_F(NetworkFixture, DuplicateAttachThrows) {
  EXPECT_THROW(network.attach(1, [](const Message&) {}),
               std::invalid_argument);
}

TEST_F(NetworkFixture, ReservedIdThrows) {
  EXPECT_THROW(network.attach(sim::kNoNode, [](const Message&) {}),
               std::invalid_argument);
}

TEST_F(NetworkFixture, AttachErrorCarriesKindAndId) {
  try {
    network.attach(2, [](const Message&) {});
    FAIL() << "duplicate attach must throw";
  } catch (const AttachError& e) {
    EXPECT_EQ(e.kind(), AttachError::Kind::kDuplicateId);
    EXPECT_EQ(e.id(), NodeId{2});
  }
  try {
    network.attach(sim::kNoNode, [](const Message&) {});
    FAIL() << "reserved id must throw";
  } catch (const AttachError& e) {
    EXPECT_EQ(e.kind(), AttachError::Kind::kReservedId);
    EXPECT_EQ(e.id(), sim::kNoNode);
  }
}

TEST_F(NetworkFixture, UnknownInterfaceThrows) {
  EXPECT_THROW(static_cast<void>(network.interface(99)), std::out_of_range);
}

TEST_F(NetworkFixture, NodesListedInAttachOrder) {
  EXPECT_EQ(network.nodes(), (std::vector<NodeId>{1, 2, 3}));
}

TEST_F(NetworkFixture, InterfaceRecoveryRestoresDelivery) {
  network.interface(2).set_rx(false);
  network.send(msg(1, 2, "lost"));
  simulator.run_until(seconds(1));
  network.interface(2).set_rx(true);
  network.send(msg(1, 2, "delivered"));
  simulator.run_until(seconds(2));
  ASSERT_EQ(inbox2.size(), 1u);
  EXPECT_EQ(inbox2[0].type_name(), "delivered");
}

TEST_F(NetworkFixture, MessageLossDropsApproximatelyTheConfiguredShare) {
  network.set_message_loss_rate(0.3);
  for (int i = 0; i < 2000; ++i) network.send(msg(1, 2, "lossy"));
  simulator.run_until(seconds(1));
  // ~70% should arrive; 3-sigma band for p=0.7, n=2000 is +-0.031.
  const double delivered = static_cast<double>(inbox2.size()) / 2000.0;
  EXPECT_NEAR(delivered, 0.7, 0.05);
  // Losses are at the receiver: every message was counted on the wire.
  EXPECT_EQ(network.counters().of_type("lossy"), 2000u);
}

TEST_F(NetworkFixture, MessageLossZeroDeliversEverything) {
  network.set_message_loss_rate(0.0);
  for (int i = 0; i < 100; ++i) network.send(msg(1, 2, "clean"));
  simulator.run_until(seconds(1));
  EXPECT_EQ(inbox2.size(), 100u);
}

TEST_F(NetworkFixture, MessageLossAffectsMulticastPerDelivery) {
  network.set_message_loss_rate(0.5);
  for (int i = 0; i < 500; ++i) {
    network.multicast(msg(1, 0, "announce"));
  }
  simulator.run_until(seconds(1));
  // Each of the two receivers loses independently.
  EXPECT_NEAR(static_cast<double>(inbox2.size()) / 500.0, 0.5, 0.08);
  EXPECT_NEAR(static_cast<double>(inbox3.size()) / 500.0, 0.5, 0.08);
  EXPECT_NE(inbox2.size(), inbox3.size());  // independent draws
}

TEST_F(NetworkFixture, MessageLossIsDeterministicPerSeed) {
  const auto run = [] {
    sim::Simulator s(123);
    Network n(s);
    n.set_message_loss_rate(0.4);
    std::size_t received = 0;
    n.attach(1, [](const Message&) {});
    n.attach(2, [&](const Message&) { ++received; });
    for (int i = 0; i < 200; ++i) {
      Message m;
      m.src = 1;
      m.dst = 2;
      m.type = sdcm::net::MessageType::intern("x");
      n.send(m);
    }
    s.run_until(seconds(1));
    return received;
  };
  EXPECT_EQ(run(), run());
}

// Every unicast arrival closure must fit InlineCallback's buffer: the
// segment waits in the network's in-flight slab, and the event captures
// only {network, slab index}. The lossy path parks the same way.
TEST_F(NetworkFixture, UnicastBoxesNoEventCallback) {
  network.set_message_loss_rate(0.25);
  for (int k = 0; k < 40; ++k) {
    network.send(msg(1, k % 2 == 0 ? 2 : 3, "alloc.pin"));
  }
  simulator.run_until(seconds(1));
  EXPECT_EQ(simulator.kernel_stats().udp_sent, 40u);
  EXPECT_GT(inbox2.size() + inbox3.size(), 0u);
  EXPECT_EQ(simulator.kernel_stats().callback_heap_allocs, 0u);
}

TEST(NetworkInFlight, HandlerThatSendsDuringDeliveryKeepsItsMessage) {
  // Node 2 answers each request with a burst of sends from inside its
  // handler, so the in-flight slab grows (and reallocates) while the
  // request being dispatched has just left it. The request must still
  // be intact after the burst, payload included.
  struct Request {
    std::string text;  // not trivially copyable: a shared payload
  };
  sim::Simulator simulator{5};
  Network network{simulator};
  int replies = 0;
  std::vector<std::string> checked;
  network.attach(1, [&](const Message&) { ++replies; });
  network.attach(2, [&](const Message& m) {
    for (int i = 0; i < 64; ++i) {
      Message reply;
      reply.src = 2;
      reply.dst = 1;
      reply.type = MessageType::intern("inflight.reply");
      network.send(reply);
    }
    EXPECT_EQ(m.src, 1u);
    EXPECT_EQ(m.dst, 2u);
    EXPECT_EQ(m.type_name(), "inflight.request");
    EXPECT_EQ(m.bytes, 77u);
    checked.push_back(m.as<Request>().text);
  });
  for (int k = 0; k < 3; ++k) {
    Message request;
    request.src = 1;
    request.dst = 2;
    request.type = MessageType::intern("inflight.request");
    request.payload = Request{"request #" + std::to_string(k)};
    request.bytes = 77;
    network.send(request);
  }
  simulator.run_until(seconds(1));
  std::sort(checked.begin(), checked.end());
  EXPECT_EQ(checked, (std::vector<std::string>{"request #0", "request #1",
                                               "request #2"}));
  EXPECT_EQ(replies, 3 * 64);
  EXPECT_EQ(simulator.kernel_stats().callback_heap_allocs, 0u);
}

/// A bare receiver: one vtable pointer, as a protocol node adds.
struct NullSink final : MessageSink {
  void handle_message(const Message&) override {}
};

/// Heap bytes per node that attaching `n` sinks costs the network. The
/// sinks exist before the first sample, so only the NodeTable and the
/// attach order count.
double attach_bytes_per_node(NodeId n) {
  sim::Simulator simulator{1};
  Network network{simulator};
  std::vector<NullSink> sinks(n);
  const std::uint64_t before = obs::sample_memory().heap_bytes;
  network.reserve_nodes(n);
  for (NodeId id = 1; id <= n; ++id) network.attach(id, sinks[id - 1]);
  const std::uint64_t after = obs::sample_memory().heap_bytes;
  return after > before ? static_cast<double>(after - before) / n : 0.0;
}

// Dense NodeId-indexed tables: attach storage per node must not grow
// with N, from 10^3 up to 10^5 sinks, where the table is far past the
// size glibc serves by mmap.
TEST(NetworkAttach, BytesPerNodeStayFlatAcrossDecades) {
  if (obs::sample_memory().heap_bytes == 0) {
    GTEST_SKIP() << "heap_bytes is not sampled in this build";
  }
  const double at_1e3 = attach_bytes_per_node(1000);
  for (const NodeId n : {NodeId{1000}, NodeId{10000}, NodeId{100000}}) {
    const double per_node = attach_bytes_per_node(n);
    // Each node holds at least its sink pointer and its attach-order
    // entry; less means the sample missed the table.
    EXPECT_GE(per_node, static_cast<double>(sizeof(MessageSink*) +
                                            sizeof(NodeId)))
        << n << " nodes";
    // 10 % slack absorbs allocator bucketing at the small end.
    EXPECT_LE(per_node, at_1e3 * 1.10) << n << " nodes";
  }
}

}  // namespace
}  // namespace sdcm::net
