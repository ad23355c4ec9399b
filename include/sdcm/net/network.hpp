#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "sdcm/net/interface.hpp"
#include "sdcm/net/message.hpp"
#include "sdcm/sim/simulator.hpp"
#include "sdcm/sim/trace.hpp"

namespace sdcm::net {

/// Trace tags of the network layer and how each renders its detail.
namespace tag {
namespace slot = sim::trace_slot;
using sim::TraceTag;
/// A wire copy or delivery the network dropped; the detail is the
/// message's type.
inline const TraceTag kDropTx{"net.drop.tx", {slot::kType}};
inline const TraceTag kDropRx{"net.drop.rx", {slot::kType}};
inline const TraceTag kDropCapacity{"net.drop.capacity", {slot::kType}};
inline const TraceTag kTcpRex{"tcp.rex", {slot::peer("to")}};
/// A planned failure episode flipped an interface; the detail is the
/// episode's FailureMode.
inline const TraceTag kInterfaceDown{"interface.down", {slot::kFlag}};
inline const TraceTag kInterfaceUp{"interface.up", {slot::kFlag}};
}  // namespace tag

/// Out-of-band observer of every interface consultation the network
/// makes: one on_send per wire copy, with the transmitter state the
/// network saw, and one on_arrival per delivery attempt, with the
/// receiver state and the loss-model verdict. Purely observational —
/// implementations must not mutate the simulation (the consistency
/// oracle in src/check is the intended consumer). deliver_local bypasses
/// interfaces and is not probed.
class WireProbe {
 public:
  virtual ~WireProbe() = default;
  virtual void on_send(const Message& msg, bool tx_up, sim::SimTime at) = 0;
  virtual void on_arrival(const Message& msg, bool rx_up, bool lost,
                          sim::SimTime at) = 0;
};

/// Receiver half of the node/message API: anything attached to the
/// Network implements this one-virtual interface. Delivery is a vtable
/// call through the stored pointer - no per-node std::function, no
/// captured lambda state, 8 bytes per node in the NodeTable.
/// discovery::Node implements it for every protocol entity.
class MessageSink {
 public:
  virtual ~MessageSink() = default;
  virtual void handle_message(const Message& msg) = 0;

  /// The multicast message types this sink actually parses, for the
  /// interest-scoped fan-out (DESIGN.md section 14). std::nullopt (the
  /// default) means "universal": the sink sees every multicast, exactly
  /// the pre-scoping behavior - tests and tools need no changes. An
  /// engaged vector subscribes the sink to exactly those interned
  /// atoms; an engaged *empty* vector receives no multicast at all.
  /// Unicast and TCP delivery are never filtered.
  ///
  /// Resolution is lazy and happens once: the network reads this on
  /// the first multicast after attach, never during attach itself,
  /// because protocol nodes attach from their base-class constructor
  /// where a virtual call would not reach the derived override.
  [[nodiscard]] virtual std::optional<std::vector<MessageType>>
  multicast_interests() const {
    return std::nullopt;
  }
};

/// Typed attach failure: the id was reserved (0) or already taken.
/// Derives std::invalid_argument so pre-existing catch sites keep
/// working; carries the offending id and the reason as data.
class AttachError : public std::invalid_argument {
 public:
  enum class Kind : std::uint8_t {
    kReservedId,   ///< NodeId 0 is the broadcast/unknown sentinel
    kDuplicateId,  ///< a node with this id is already attached
  };

  AttachError(Kind kind, NodeId id);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] NodeId id() const noexcept { return id_; }

 private:
  Kind kind_;
  NodeId id_;
};

/// Abstract local-area network: every attached node can unicast or
/// multicast to every other with a uniform 10-100 us transmission delay
/// (Table 3). There is no topology and no routing; the paper's LAN is a
/// single broadcast domain.
///
/// Semantics (matching the NIST interface-failure model):
///  - A message leaves the node only if its transmitter is up at send
///    time; otherwise it is silently lost (the sender does not learn of
///    the loss - that is UDP).
///  - A message is accepted only if the receiver's rx interface is up at
///    the *arrival* time.
///  - Counters tally messages that actually reached the wire (tx up),
///    once per wire copy: a multicast is one wire message per redundant
///    copy regardless of the number of receivers.
///
/// Node storage is a flat NodeTable: a dense vector indexed directly by
/// NodeId (the scenario layout hands out contiguous ids), so the
/// delivery hot path is one bounds check and one indexed load instead of
/// a hash probe, and attaching 10^6 nodes costs 10^6 table slots - no
/// rehashing, no per-node heap nodes.
class Network {
 public:
  using Handler = std::function<void(const Message&)>;

  Network(sim::Simulator& simulator, sim::SimDuration min_delay,
          sim::SimDuration max_delay);

  /// Default delays per Table 3: U(10 us, 100 us).
  explicit Network(sim::Simulator& simulator);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a node. Must be called before the node sends or receives.
  /// Throws AttachError on a zero or duplicate id. The sink is not
  /// owned and must outlive the network (protocol nodes own their
  /// attachment for the run's lifetime by construction).
  void attach(NodeId id, MessageSink& sink);

  /// Convenience overload for tests and tools: wraps `handler` in a
  /// network-owned sink. Prefer the MessageSink overload in node code -
  /// this one allocates the wrapper.
  void attach(NodeId id, Handler handler);

  [[nodiscard]] InterfaceState& interface(NodeId id);
  [[nodiscard]] const InterfaceState& interface(NodeId id) const;

  /// All attached node ids, in attach order (used for broadcast domains
  /// and by the failure planner).
  [[nodiscard]] const std::vector<NodeId>& nodes() const noexcept {
    return order_;
  }

  /// Pre-sizes the NodeTable for `max_id`, so building a large topology
  /// performs one allocation instead of doubling growth.
  void reserve_nodes(NodeId max_id);

  /// UDP unicast: fire and forget.
  void send(const Message& msg);

  /// UDP multicast to every *subscribed* attached node except the
  /// source (DESIGN.md section 14): only the merged universal and
  /// per-atom subscriber lists are walked, in attach order, and only
  /// those destinations draw delay and loss; every other attached node
  /// is booked in bulk into KernelStats::udp_deliveries_skipped.
  /// `redundant_copies` models the "redundant 6 times transmission"
  /// UPnP and Jini use for multicast (Table 3); FRODO uses 1.
  void multicast(const Message& msg, int redundant_copies = 1);

  /// Current subscribers of `type` in attach order (universal sinks
  /// included). Forces resolution of any pending interests.
  [[nodiscard]] std::vector<NodeId> multicast_subscribers(MessageType type);

  /// Verifies the subscription index against a from-scratch rebuild off
  /// the port table: every subscriber list sorted by attach sequence,
  /// no stale or missing entries. Returns false (and never throws) on
  /// any mismatch; every experiment run calls this after its run loop.
  [[nodiscard]] bool check_subscription_index();

  /// Low-level single wire transmission used by the TCP model: counts the
  /// segment iff the transmitter is up, draws a delay, and invokes
  /// `on_result(delivered)` at the arrival time. If `deliver` is true and
  /// the segment was accepted, the destination handler also runs (before
  /// on_result).
  /// Returns whether the segment reached the wire (source transmitter was
  /// up) - for accounting only, not something a real sender could observe.
  bool transmit(Message msg, bool deliver,
                std::function<void(bool delivered)> on_result);

  /// Hands a message straight to the destination handler at the current
  /// time, bypassing interfaces and counters. Used by the TCP model for
  /// the application payload once its own segment exchange has succeeded.
  void deliver_local(const Message& msg);

  [[nodiscard]] MessageCounters& counters() noexcept { return counters_; }
  [[nodiscard]] const MessageCounters& counters() const noexcept {
    return counters_;
  }

  [[nodiscard]] sim::Simulator& simulator() noexcept { return sim_; }

  /// Independent per-delivery loss probability, the communication-failure
  /// model of the paper's companion message-loss study [25] (as opposed
  /// to Section 5's interface failures). Applied at the receiver for
  /// every unicast/multicast delivery and for TCP segments; 0 = off.
  void set_message_loss_rate(double rate);
  [[nodiscard]] double message_loss_rate() const noexcept {
    return loss_rate_;
  }

  /// Finite link capacity, the workload saturation model (DESIGN.md
  /// section 11): each source gets a token bucket refilled at `rate_hz`
  /// wire copies per second with `burst` tokens of depth, backed by a
  /// bounded virtual queue of `queue_limit` copies. A copy that finds a
  /// token leaves immediately; a copy that overdraws the bucket is
  /// delayed by its queue position; a copy that would overflow the queue
  /// is dropped (net.drop.capacity, KernelStats::capacity_dropped).
  /// Deterministic - no randomness is consumed. rate_hz = 0 (the
  /// default) disables the model entirely, leaving the message path
  /// bit-identical to a capacity-unaware network.
  void set_link_capacity(double rate_hz, double burst, int queue_limit);
  [[nodiscard]] bool capacity_enabled() const noexcept {
    return cap_rate_per_us_ > 0.0;
  }

  /// Installs (or clears, with nullptr) the wire probe. Non-owning; the
  /// probe must outlive the network or be cleared first.
  void set_wire_probe(WireProbe* probe) noexcept { probe_ = probe; }

  /// One-way delay sample; exposed so the TCP model can base its first
  /// retransmission timeout on the configured round-trip time.
  [[nodiscard]] sim::SimDuration draw_delay();
  [[nodiscard]] sim::SimDuration max_delay() const noexcept {
    return max_delay_;
  }

 private:
  /// Interest sentinel values stored in Port::interest; real interned
  /// interest-set indices are below both.
  static constexpr std::uint32_t kInterestUnresolved = 0xFFFFFFFFu;
  static constexpr std::uint32_t kInterestUniversal = 0xFFFFFFFEu;

  /// One NodeTable slot. Dispatch state is a bare interface pointer;
  /// the token-bucket fields are live only while capacity_enabled().
  struct Port {
    MessageSink* sink = nullptr;
    InterfaceState iface;
    double tokens = 0.0;
    sim::SimTime tokens_at = 0;
    /// Index into interest_sets_, or a kInterest* sentinel.
    std::uint32_t interest = kInterestUnresolved;
    /// Position in order_ at attach time; subscriber lists sort by this
    /// so scoped delivery visits destinations in attach order.
    std::uint32_t seq = 0;

    [[nodiscard]] bool attached() const noexcept { return sink != nullptr; }
  };

  /// A subscriber-list entry; lists stay sorted by seq (attach order).
  struct Sub {
    std::uint32_t seq;
    NodeId id;
  };

  Port& port(NodeId id);
  [[nodiscard]] const Port& port(NodeId id) const;
  [[nodiscard]] bool lost_in_transit();

  /// Consults multicast_interests() once for every port attached since
  /// the last pass (virtual dispatch is safe by now: nothing multicasts
  /// during construction) and appends each to the lists it subscribes
  /// to.
  void resolve_pending_interests();
  /// The per-atom subscriber list of `type` (empty when nobody declared
  /// it); universal sinks are not on it.
  [[nodiscard]] const std::vector<Sub>& subscribers_of(MessageType type) const;
  [[nodiscard]] std::uint32_t intern_interest_set(
      const std::vector<MessageType>& types);

  /// Fire-time body of one multicast delivery: stack-copies the shared
  /// wire copy (stamping dst), probes, applies rx/loss accounting, and
  /// dispatches. The scheduling closure captures only {this, wire, dst,
  /// lost} so it fits InlineCallback's buffer.
  void deliver_multicast_copy(const std::shared_ptr<const Message>& wire,
                              NodeId dst, bool lost);

  /// One unicast or TCP segment in flight: everything its arrival needs.
  /// transmit() parks it in a network-owned slab (`in_flight_`), so the
  /// arrival closure captures only {this, index} and fits
  /// InlineCallback's buffer instead of boxing a Message and a
  /// std::function per send.
  struct InFlight {
    Message msg;
    std::function<void(bool delivered)> on_result;
    bool deliver = false;
    bool lost = false;
  };

  /// Fire-time body of one unicast or TCP arrival: moves slab entry
  /// `index` out and frees it, then probes, applies rx/loss accounting,
  /// dispatches and reports the result.
  void arrive(std::uint32_t index);

  /// Token-bucket admission for one wire copy leaving `src` now: the
  /// shaping delay to add to the copy's transit delay (0 when a token
  /// was free), or std::nullopt when the bounded queue is full and the
  /// copy must drop. Only called while capacity_enabled().
  [[nodiscard]] std::optional<sim::SimDuration> shape(Port& src);

  sim::Simulator& sim_;
  sim::SimDuration min_delay_;
  sim::SimDuration max_delay_;
  WireProbe* probe_ = nullptr;
  double loss_rate_ = 0.0;
  double cap_rate_per_us_ = 0.0;
  double cap_burst_ = 0.0;
  int cap_queue_limit_ = 0;
  sim::Random rng_;
  sim::Random loss_rng_;
  /// The NodeTable: indexed directly by NodeId, grown to the largest
  /// attached id. Slot 0 (the reserved id) stays empty.
  std::vector<Port> table_;
  std::vector<NodeId> order_;
  /// Segments between transmit() and arrival, recycled through
  /// in_flight_free_ (LIFO); sized by the peak number in flight.
  std::vector<InFlight> in_flight_;
  std::vector<std::uint32_t> in_flight_free_;
  /// Wrappers allocated by the Handler-based attach overload.
  std::vector<std::unique_ptr<MessageSink>> owned_sinks_;
  MessageCounters counters_;

  // Interest-scoped fan-out state (DESIGN.md section 14).
  /// Interned interest sets (sorted unique atom ids); ports with
  /// identical declarations share one entry.
  std::vector<std::vector<MessageType::Id>> interest_sets_;
  std::map<std::vector<MessageType::Id>, std::uint32_t> interest_index_;
  /// Per-atom subscriber lists, indexed by MessageType::Id, each sorted
  /// by attach seq. Universal sinks live in universal_ instead.
  std::vector<std::vector<Sub>> subs_by_type_;
  std::vector<Sub> universal_;
  /// How many order_ entries have had their interests resolved; attach
  /// only appends, so the unresolved tail is order_[resolved_upto_..].
  std::size_t resolved_upto_ = 0;
};

}  // namespace sdcm::net
