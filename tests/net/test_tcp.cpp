#include "sdcm/net/tcp.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace sdcm::net {
namespace {

using sim::seconds;

struct TcpFixture : ::testing::Test {
  sim::Simulator simulator{99};
  Network network{simulator};
  std::vector<Message> inbox1, inbox2;

  void SetUp() override {
    network.attach(1, [this](const Message& m) { inbox1.push_back(m); });
    network.attach(2, [this](const Message& m) { inbox2.push_back(m); });
  }

  static Message app_msg(NodeId src, NodeId dst, std::string_view type) {
    Message m;
    m.src = src;
    m.dst = dst;
    m.type = MessageType::intern(type);
    m.klass = MessageClass::kUpdate;
    return m;
  }
};

TEST_F(TcpFixture, HandshakeOpensOnHealthyNetwork) {
  bool opened = false;
  bool rexed = false;
  TcpConnection::open(
      network, 1, 2, [&](const auto&) { opened = true; },
      [&] { rexed = true; });
  simulator.run_until(seconds(1));
  EXPECT_TRUE(opened);
  EXPECT_FALSE(rexed);
  EXPECT_EQ(network.counters().of_type("tcp.syn"), 1u);
  EXPECT_EQ(network.counters().of_type("tcp.synack"), 1u);
}

TEST_F(TcpFixture, DataDeliveredOnceAndAcked) {
  std::shared_ptr<TcpConnection> conn;
  TcpConnection::open(
      network, 1, 2, [&](const auto& c) { conn = c; }, [] {});
  simulator.run_until(seconds(1));
  ASSERT_TRUE(conn);

  bool acked = false;
  conn->send(app_msg(1, 2, "notify"), [&] { acked = true; });
  simulator.run_until(seconds(2));
  ASSERT_EQ(inbox2.size(), 1u);
  EXPECT_EQ(inbox2[0].type, "notify");
  EXPECT_TRUE(inbox2[0].conn != nullptr);
  EXPECT_TRUE(acked);
  // Healthy network: exactly one app segment, one transport ack, no retx.
  EXPECT_EQ(network.counters().of_type("notify"), 1u);
  EXPECT_EQ(network.counters().of_type("tcp.ack"), 1u);
  EXPECT_EQ(network.counters().of_type("notify.retx"), 0u);
}

TEST(TcpRequestResponse, ResponderCanReplyOnSameConnection) {
  // Emulates request/response (UPnP GetDescription, Jini lookup): node 2
  // replies to a delivered "request" over the connection handle attached
  // to the message.
  sim::Simulator simulator(7);
  Network network(simulator);
  std::vector<Message> inbox1;
  network.attach(1, [&](const Message& m) { inbox1.push_back(m); });
  network.attach(2, [&](const Message& m) {
    if (m.type == "request") {
      Message reply;
      reply.src = 2;
      reply.dst = 1;
      reply.type = sdcm::net::MessageType::intern("response");
      reply.klass = MessageClass::kUpdate;
      m.conn->send(reply);
    }
  });

  Message request;
  request.src = 1;
  request.dst = 2;
  request.type = sdcm::net::MessageType::intern("request");
  request.klass = MessageClass::kUpdate;
  TcpConnection::open_and_send(network, request, {}, {});
  simulator.run_until(sim::seconds(1));
  ASSERT_EQ(inbox1.size(), 1u);
  EXPECT_EQ(inbox1[0].type, "response");
  // One handshake serves both directions.
  EXPECT_EQ(network.counters().of_type("tcp.syn"), 1u);
}

TEST_F(TcpFixture, RexAfterSetupWindowWhenPeerUnreachable) {
  network.interface(2).set_rx(false);
  bool opened = false;
  sim::SimTime rex_at = -1;
  TcpConnection::open(
      network, 1, 2, [&](const auto&) { opened = true; },
      [&] { rex_at = simulator.now(); });
  simulator.run_until(seconds(200));
  EXPECT_FALSE(opened);
  // Table 3: initial SYN at 0 plus 4 retransmissions at 6, 30, 54, 78 s;
  // REX is concluded one final 24 s gap after the last one, at 102 s.
  EXPECT_EQ(rex_at, seconds(102));
  // 5 SYNs reached the wire, none answered.
  EXPECT_EQ(network.counters().of_type("tcp.syn"), 5u);
  EXPECT_EQ(network.counters().of_type("tcp.synack"), 0u);
}

TEST_F(TcpFixture, RexWhenInitiatorTransmitterDown) {
  network.interface(1).set_tx(false);
  bool opened = false;
  bool rexed = false;
  TcpConnection::open(
      network, 1, 2, [&](const auto&) { opened = true; }, [&] { rexed = true; });
  simulator.run_until(seconds(200));
  EXPECT_FALSE(opened);
  EXPECT_TRUE(rexed);
  EXPECT_EQ(network.counters().of_type("tcp.syn"), 0u);  // never hit the wire
}

TEST_F(TcpFixture, HandshakeSucceedsOnRetryAfterShortOutage) {
  // Peer recovers between the first attempt (t=0) and the second (t=6 s).
  network.interface(2).set_rx(false);
  simulator.schedule_at(seconds(3), [&] { network.interface(2).set_rx(true); });
  sim::SimTime opened_at = -1;
  TcpConnection::open(
      network, 1, 2, [&](const auto&) { opened_at = simulator.now(); }, [] {});
  simulator.run_until(seconds(100));
  ASSERT_GE(opened_at, seconds(6));
  EXPECT_LT(opened_at, seconds(7));
  EXPECT_EQ(network.counters().of_type("tcp.syn"), 2u);
}

TEST_F(TcpFixture, DataRetransmitsUntilSuccessWithBackoff) {
  std::shared_ptr<TcpConnection> conn;
  TcpConnection::open(
      network, 1, 2, [&](const auto& c) { conn = c; }, [] {});
  simulator.run_until(seconds(1));
  ASSERT_TRUE(conn);

  // Receiver goes down for 10 s; data sent during the outage must arrive
  // after recovery (Table 3: "retransmit until success").
  network.interface(2).set_rx(false);
  simulator.schedule_in(seconds(10),
                        [&] { network.interface(2).set_rx(true); });
  bool acked = false;
  conn->send(app_msg(1, 2, "notify"), [&] { acked = true; });
  simulator.run_until(seconds(60));
  ASSERT_EQ(inbox2.size(), 1u);
  EXPECT_TRUE(acked);
  // First wire copy is the app message; all retries count as transport.
  EXPECT_EQ(network.counters().of_type("notify"), 1u);
  EXPECT_GT(network.counters().of_type("notify.retx"), 10u);
}

TEST_F(TcpFixture, RetransmissionBackoffGrows25Percent) {
  std::shared_ptr<TcpConnection> conn;
  TcpConnection::Config cfg;
  cfg.initial_rto = sim::milliseconds(1);
  TcpConnection::open(
      network, 1, 2, [&](const auto& c) { conn = c; }, [] {}, cfg);
  simulator.run_until(seconds(1));
  ASSERT_TRUE(conn);

  network.interface(2).set_rx(false);
  const sim::SimTime t0 = simulator.now();
  conn->send(app_msg(1, 2, "notify"));
  simulator.run_until(t0 + sim::milliseconds(100));

  // Expected retransmission offsets: 1, 2.25, 3.8125, ... ms (cumulative
  // sums of 1, 1.25, 1.5625, ...).
  std::vector<sim::SimTime> retx_times;
  simulator.trace().for_each_event("net.drop.rx", [&](const auto& r) {
    retx_times.push_back(r.at - t0);
  });
  ASSERT_GE(retx_times.size(), 4u);
  // First copy arrives ~[10,100] us after t0; first retx ~1 ms later.
  double expected_send = 0.0;
  double rto = 1000.0;  // us
  for (std::size_t i = 1; i < 4; ++i) {
    expected_send += rto;
    rto *= 1.25;
    const auto actual = static_cast<double>(retx_times[i]);
    EXPECT_NEAR(actual, expected_send, 150.0)  // +- arrival jitter
        << "retransmission " << i;
  }
}

TEST_F(TcpFixture, CloseStopsRetransmissions) {
  std::shared_ptr<TcpConnection> conn;
  TcpConnection::open(
      network, 1, 2, [&](const auto& c) { conn = c; }, [] {});
  simulator.run_until(seconds(1));
  ASSERT_TRUE(conn);
  network.interface(2).set_rx(false);
  conn->send(app_msg(1, 2, "notify"));
  simulator.run_until(seconds(2));
  conn->close();
  const auto drops_at_close = simulator.trace().count_event("net.drop.rx");
  simulator.run_until(seconds(30));
  EXPECT_EQ(simulator.trace().count_event("net.drop.rx"), drops_at_close);
  EXPECT_FALSE(conn->is_open());
}

TEST_F(TcpFixture, OpenAndSendDeliversInOneShot) {
  bool acked = false;
  TcpConnection::open_and_send(network, app_msg(1, 2, "renew"),
                               [&] { acked = true; }, [] {});
  simulator.run_until(seconds(1));
  ASSERT_EQ(inbox2.size(), 1u);
  EXPECT_EQ(inbox2[0].type, "renew");
  EXPECT_TRUE(acked);
}

TEST_F(TcpFixture, OpenAndSendRexesWhenUnreachable) {
  network.interface(2).set_rx(false);
  bool rexed = false;
  TcpConnection::open_and_send(network, app_msg(1, 2, "renew"), [] {},
                               [&] { rexed = true; });
  simulator.run_until(seconds(150));
  EXPECT_TRUE(rexed);
  EXPECT_TRUE(inbox2.empty());
}

TEST_F(TcpFixture, PeerOfReturnsOtherEndpoint) {
  std::shared_ptr<TcpConnection> conn;
  TcpConnection::open(
      network, 1, 2, [&](const auto& c) { conn = c; }, [] {});
  simulator.run_until(seconds(1));
  ASSERT_TRUE(conn);
  EXPECT_EQ(conn->peer_of(1), 2u);
  EXPECT_EQ(conn->peer_of(2), 1u);
  EXPECT_EQ(conn->initiator(), 1u);
  EXPECT_EQ(conn->responder(), 2u);
}

// A TCP exchange - handshake, request, reply on the same connection,
// and the transport acks - must box no event callback: every segment
// waits in the network's in-flight slab, not in its arrival closure.
TEST_F(TcpFixture, ExchangeBoxesNoEventCallback) {
  bool request_acked = false;
  TcpConnection::open_and_send(network, app_msg(1, 2, "request"),
                               [&] { request_acked = true; }, [] {});
  simulator.run_until(seconds(1));
  ASSERT_EQ(inbox2.size(), 1u);
  ASSERT_TRUE(inbox2[0].conn != nullptr);
  bool reply_acked = false;
  inbox2[0].conn->send(app_msg(2, 1, "reply"), [&] { reply_acked = true; });
  simulator.run_until(seconds(2));
  ASSERT_EQ(inbox1.size(), 1u);
  EXPECT_EQ(inbox1[0].type, "reply");
  EXPECT_TRUE(request_acked);
  EXPECT_TRUE(reply_acked);
  // SYN, SYN-ACK and two acks; the request and the reply are counted
  // by their own class, as UDP-side wire copies.
  EXPECT_EQ(simulator.kernel_stats().tcp_sent, 4u);
  EXPECT_EQ(simulator.kernel_stats().messages_sent(), 6u);
  EXPECT_EQ(simulator.kernel_stats().callback_heap_allocs, 0u);
}

TEST(TcpLifetime, ConnectionSurvivesViaPendingEventsOnly) {
  // The caller drops every reference; the connection must stay alive
  // through its own scheduled events and still complete the exchange.
  sim::Simulator simulator(8);
  Network network(simulator);
  int delivered = 0;
  network.attach(1, [](const Message&) {});
  network.attach(2, [&](const Message&) { ++delivered; });

  Message m;
  m.src = 1;
  m.dst = 2;
  m.type = sdcm::net::MessageType::intern("oneshot");
  m.klass = MessageClass::kControl;
  TcpConnection::open_and_send(network, m, {}, {});
  simulator.run_until(sim::seconds(1));
  EXPECT_EQ(delivered, 1);
}

}  // namespace
}  // namespace sdcm::net
