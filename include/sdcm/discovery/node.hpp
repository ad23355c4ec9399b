#pragma once

#include <string>
#include <utility>

#include "sdcm/net/network.hpp"
#include "sdcm/sim/simulator.hpp"

namespace sdcm::discovery {

using sim::NodeId;

/// Base class for every protocol entity (User, Manager, Registry across
/// all three protocols). Wires the node into the Network, forks a
/// per-node random stream, and provides trace sugar. Subclasses implement
/// `on_message` and start their timers in `start()` (called by the
/// scenario once all nodes are attached, so startup multicasts have an
/// audience).
///
/// A Node IS the network's MessageSink: delivery is a single vtable call
/// on the node itself, so attaching a node stores one pointer in the
/// NodeTable - no std::function, no captured lambda per node.
class Node : public net::MessageSink {
 public:
  Node(sim::Simulator& simulator, net::Network& network, NodeId id,
       std::string name);
  virtual ~Node() = default;
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Kicks off the node's initial behaviour (announcements, discovery).
  virtual void start() = 0;

  // Workload lifecycle (DESIGN.md section 11). The churn generator pairs
  // each depart() with a both-directions failure episode, so a departing
  // node's radio goes silent the moment its process state resets; the
  // interface model keeps covering anything a stray timer still sends.

  /// Leaves the network mid-run as a process crash would: stop timers and
  /// forget session state (leases, cached peers) without any goodbye
  /// traffic. Default no-op for nodes that hold no session state.
  virtual void depart() {}

  /// Returns mid-run as a fresh process; the default simply restarts the
  /// node's lifecycle (PeriodicTimer::start is re-entrant, so this is
  /// safe on every protocol).
  virtual void rejoin() { start(); }

  /// Sends the protocol's unsolicited announcement immediately (workload
  /// storm bursts). Default no-op for nodes that never announce.
  virtual void announce_now() {}

  /// net::MessageSink: the Network delivers here.
  void handle_message(const net::Message& msg) final { on_message(msg); }

 protected:
  virtual void on_message(const net::Message& msg) = 0;

  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }
  [[nodiscard]] net::Network& network() noexcept { return net_; }
  [[nodiscard]] sim::Random& rng() noexcept { return rng_; }
  [[nodiscard]] sim::SimTime now() const noexcept { return sim_.now(); }

  /// Records a trace event at this node, parented to the ambient span
  /// (the message being handled, if any). Returns the new span id so the
  /// caller can stamp outgoing messages or child records with it.
  sim::SpanId trace(sim::TraceCategory category, sim::Atom event,
                    const sim::TraceDetail& detail = {}) {
    return sim_.trace().record(sim_.now(), id_, category, event, detail);
  }

  /// Builds an outgoing message stamped with this node as the source.
  /// Shared by every protocol module so envelope construction lives in
  /// one place (the plugin layer) instead of per-module copies.
  [[nodiscard]] net::Message make_message(net::MessageType type,
                                          net::MessageClass klass) const {
    net::Message m;
    m.src = id_;
    m.type = type;
    m.klass = klass;
    return m;
  }

  /// Multicasts `m` with `copies` redundant wire copies (each copy is
  /// counted and delivered independently).
  void send_multicast(const net::Message& m, int copies = 1) {
    net_.multicast(m, copies);
  }

  /// Unicast datagram to `dst` (UDP model; TCP exchanges go through
  /// net::TcpConnection).
  void send_unicast(net::Message m, NodeId dst) {
    m.dst = dst;
    net_.send(m);
  }

 private:
  sim::Simulator& sim_;
  net::Network& net_;
  NodeId id_;
  std::string name_;
  sim::Random rng_;
};

}  // namespace sdcm::discovery
