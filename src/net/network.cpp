#include "sdcm/net/network.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

namespace sdcm::net {

namespace {

std::string attach_error_message(AttachError::Kind kind, NodeId id) {
  switch (kind) {
    case AttachError::Kind::kReservedId:
      return "node id 0 is reserved";
    case AttachError::Kind::kDuplicateId:
      return "duplicate node id " + std::to_string(id);
  }
  return "attach error";
}

/// Adapter for the Handler-based attach overload (tests, tools).
class FunctionSink final : public MessageSink {
 public:
  explicit FunctionSink(Network::Handler handler)
      : handler_(std::move(handler)) {}
  void handle_message(const Message& msg) override { handler_(msg); }

 private:
  Network::Handler handler_;
};

/// A net.drop.* record's detail: the dropped message's type.
sim::TraceDetail type_detail(const Message& m) {
  return sim::TraceDetail{}.type(m.type);
}

/// Inserts a {seq, id} entry into a seq-sorted subscriber list. Attach
/// hands out monotonically increasing seqs, so the common case is an
/// append; the binary search only runs when interests are re-declared
/// out of attach order.
template <typename List, typename Entry>
void insert_sorted_by_seq(List& list, Entry entry) {
  if (list.empty() || list.back().seq < entry.seq) {
    list.push_back(entry);
    return;
  }
  const auto it = std::lower_bound(
      list.begin(), list.end(), entry.seq,
      [](const Entry& a, std::uint32_t seq) { return a.seq < seq; });
  list.insert(it, entry);
}

/// Removes the entry with `seq` from a seq-sorted list, if present.
template <typename List>
void erase_seq(List& list, std::uint32_t seq) {
  using Entry = typename List::value_type;
  const auto it = std::lower_bound(
      list.begin(), list.end(), seq,
      [](const Entry& a, std::uint32_t q) { return a.seq < q; });
  if (it != list.end() && it->seq == seq) list.erase(it);
}

/// Visits the ids of two seq-sorted subscriber lists merged in attach
/// order (a sink is never on both: universal sinks have no per-atom
/// entries).
template <typename List, typename Visit>
void merge_by_seq(const List& a, const List& b, Visit&& visit) {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    if (j >= b.size() || (i < a.size() && a[i].seq < b[j].seq)) {
      visit(a[i++].id);
    } else {
      visit(b[j++].id);
    }
  }
}

}  // namespace

std::string_view to_string(MessageClass c) noexcept {
  switch (c) {
    case MessageClass::kUpdate: return "update";
    case MessageClass::kControl: return "control";
    case MessageClass::kDiscovery: return "discovery";
    case MessageClass::kTransport: return "transport";
  }
  return "unknown";
}

AttachError::AttachError(Kind kind, NodeId id)
    : std::invalid_argument(attach_error_message(kind, id)),
      kind_(kind),
      id_(id) {}

void MessageCounters::count(const Message& m) {
  ++by_class_[static_cast<std::size_t>(m.klass)];
  bytes_by_class_[static_cast<std::size_t>(m.klass)] +=
      m.bytes > 0 ? m.bytes : default_bytes(m.klass);
  const auto index = static_cast<std::size_t>(m.type.id());
  if (index >= by_type_.size()) by_type_.resize(index + 1, 0);
  ++by_type_[index];
}

std::uint64_t MessageCounters::of_type(MessageType type) const noexcept {
  const auto index = static_cast<std::size_t>(type.id());
  return index < by_type_.size() ? by_type_[index] : 0;
}

std::uint64_t MessageCounters::of_type(std::string_view type) const {
  const auto atom = MessageType::lookup(type);
  return atom ? of_type(*atom) : 0;
}

std::map<std::string, std::uint64_t, std::less<>> MessageCounters::by_type()
    const {
  std::map<std::string, std::uint64_t, std::less<>> out;
  for (std::size_t id = 0; id < by_type_.size(); ++id) {
    if (by_type_[id] == 0) continue;
    const auto atom = MessageType::at(static_cast<MessageType::Id>(id));
    out.emplace(std::string(atom.str()), by_type_[id]);
  }
  return out;
}

std::uint64_t MessageCounters::total() const noexcept {
  std::uint64_t sum = 0;
  for (const auto n : by_class_) sum += n;
  return sum;
}

std::uint64_t MessageCounters::discovery_layer_total() const noexcept {
  return total() - of_class(MessageClass::kTransport);
}

std::uint64_t MessageCounters::bytes_total() const noexcept {
  std::uint64_t sum = 0;
  for (const auto n : bytes_by_class_) sum += n;
  return sum;
}

void MessageCounters::reset() {
  for (auto& n : by_class_) n = 0;
  for (auto& n : bytes_by_class_) n = 0;
  by_type_.clear();
}

Network::Network(sim::Simulator& simulator, sim::SimDuration min_delay,
                 sim::SimDuration max_delay)
    : sim_(simulator),
      min_delay_(min_delay),
      max_delay_(max_delay),
      rng_(simulator.rng().fork("network.delays")),
      loss_rng_(simulator.rng().fork("network.loss")) {
  assert(min_delay_ >= 0 && min_delay_ <= max_delay_);
}

Network::Network(sim::Simulator& simulator)
    : Network(simulator, sim::microseconds(10), sim::microseconds(100)) {}

void Network::reserve_nodes(NodeId max_id) {
  // Both vectors take the same capacity: the table is indexed by id (so
  // slot 0, the reserved id, needs a slot too) and the attach order can
  // hold at most one entry per table slot. Reserving max_id for order_
  // used to force one guaranteed reallocation mid-build when ids were
  // handed out contiguously from 1 through max_id.
  table_.reserve(static_cast<std::size_t>(max_id) + 1);
  order_.reserve(static_cast<std::size_t>(max_id) + 1);
}

void Network::attach(NodeId id, MessageSink& sink) {
  if (id == sim::kNoNode) {
    throw AttachError(AttachError::Kind::kReservedId, id);
  }
  const auto index = static_cast<std::size_t>(id);
  if (index >= table_.size()) table_.resize(index + 1);
  Port& slot = table_[index];
  if (slot.attached()) {
    throw AttachError(AttachError::Kind::kDuplicateId, id);
  }
  slot.sink = &sink;
  if (capacity_enabled()) {
    slot.tokens = cap_burst_;
    slot.tokens_at = sim_.now();
  }
  // Interests stay unresolved until the first multicast: protocol nodes
  // attach from their base-class constructor, where a virtual
  // multicast_interests() call could not reach the derived override.
  slot.interest = kInterestUnresolved;
  slot.seq = static_cast<std::uint32_t>(order_.size());
  order_.push_back(id);
}

void Network::attach(NodeId id, Handler handler) {
  auto sink = std::make_unique<FunctionSink>(std::move(handler));
  attach(id, *sink);
  owned_sinks_.push_back(std::move(sink));
}

Network::Port& Network::port(NodeId id) {
  const auto index = static_cast<std::size_t>(id);
  if (index >= table_.size() || !table_[index].attached()) {
    throw std::out_of_range("unknown node id");
  }
  return table_[index];
}

const Network::Port& Network::port(NodeId id) const {
  return const_cast<Network*>(this)->port(id);
}

std::uint32_t Network::intern_interest_set(
    const std::vector<MessageType>& types) {
  std::vector<MessageType::Id> ids;
  ids.reserve(types.size());
  for (const MessageType t : types) ids.push_back(t.id());
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  const auto [it, inserted] = interest_index_.try_emplace(
      std::move(ids), static_cast<std::uint32_t>(interest_sets_.size()));
  if (inserted) interest_sets_.push_back(it->first);
  return it->second;
}

void Network::drop_index_entries(NodeId id, const Port& p) {
  (void)id;
  if (p.interest == kInterestUniversal) {
    erase_seq(universal_, p.seq);
    return;
  }
  if (p.interest == kInterestUnresolved) return;
  for (const MessageType::Id tid : interest_sets_[p.interest]) {
    if (static_cast<std::size_t>(tid) < subs_by_type_.size()) {
      erase_seq(subs_by_type_[tid], p.seq);
    }
  }
}

void Network::apply_interests(NodeId id, Port& p,
                              std::optional<std::vector<MessageType>> types) {
  drop_index_entries(id, p);
  if (!types.has_value()) {
    p.interest = kInterestUniversal;
    insert_sorted_by_seq(universal_, Sub{p.seq, id});
    return;
  }
  const std::uint32_t set = intern_interest_set(*types);
  p.interest = set;
  for (const MessageType::Id tid : interest_sets_[set]) {
    if (static_cast<std::size_t>(tid) >= subs_by_type_.size()) {
      subs_by_type_.resize(static_cast<std::size_t>(tid) + 1);
    }
    insert_sorted_by_seq(subs_by_type_[tid], Sub{p.seq, id});
  }
}

void Network::resolve_pending_interests() {
  while (resolved_upto_ < order_.size()) {
    const NodeId id = order_[resolved_upto_];
    Port& p = table_[static_cast<std::size_t>(id)];
    if (p.interest == kInterestUnresolved) {
      apply_interests(id, p, p.sink->multicast_interests());
    }
    ++resolved_upto_;
  }
}

void Network::set_multicast_interests(
    NodeId id, std::optional<std::vector<MessageType>> types) {
  apply_interests(id, port(id), std::move(types));
}

const std::vector<Network::Sub>& Network::subscribers_of(
    MessageType type) const {
  static const std::vector<Sub> kEmpty;
  const auto tid = static_cast<std::size_t>(type.id());
  return tid < subs_by_type_.size() ? subs_by_type_[tid] : kEmpty;
}

std::vector<NodeId> Network::multicast_subscribers(MessageType type) {
  resolve_pending_interests();
  const std::vector<Sub>& typed = subscribers_of(type);
  std::vector<NodeId> out;
  out.reserve(universal_.size() + typed.size());
  merge_by_seq(universal_, typed, [&](NodeId id) { out.push_back(id); });
  return out;
}

bool Network::check_subscription_index() {
  resolve_pending_interests();
  std::vector<Sub> want_universal;
  std::vector<std::vector<Sub>> want_typed(subs_by_type_.size());
  for (const NodeId id : order_) {
    const Port& p = table_[static_cast<std::size_t>(id)];
    if (p.interest == kInterestUnresolved) return false;
    if (p.interest == kInterestUniversal) {
      want_universal.push_back(Sub{p.seq, id});
      continue;
    }
    if (static_cast<std::size_t>(p.interest) >= interest_sets_.size()) {
      return false;
    }
    for (const MessageType::Id tid : interest_sets_[p.interest]) {
      if (static_cast<std::size_t>(tid) >= want_typed.size()) {
        want_typed.resize(static_cast<std::size_t>(tid) + 1);
      }
      want_typed[tid].push_back(Sub{p.seq, id});
    }
  }
  // order_ is attach order, so the rebuilt lists are seq-sorted already.
  const auto same = [](const std::vector<Sub>& a, const std::vector<Sub>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t k = 0; k < a.size(); ++k) {
      if (a[k].seq != b[k].seq || a[k].id != b[k].id) return false;
    }
    return true;
  };
  if (!same(want_universal, universal_)) return false;
  if (want_typed.size() > subs_by_type_.size()) return false;
  for (std::size_t t = 0; t < subs_by_type_.size(); ++t) {
    static const std::vector<Sub> kEmpty;
    const std::vector<Sub>& want = t < want_typed.size() ? want_typed[t] : kEmpty;
    if (!same(want, subs_by_type_[t])) return false;
  }
  return true;
}

InterfaceState& Network::interface(NodeId id) { return port(id).iface; }

const InterfaceState& Network::interface(NodeId id) const {
  return port(id).iface;
}

sim::SimDuration Network::draw_delay() {
  return rng_.uniform_int(min_delay_, max_delay_);
}

void Network::set_message_loss_rate(double rate) {
  assert(rate >= 0.0 && rate <= 1.0);
  loss_rate_ = rate;
}

bool Network::lost_in_transit() {
  return loss_rate_ > 0.0 && loss_rng_.bernoulli(loss_rate_);
}

void Network::set_link_capacity(double rate_hz, double burst,
                                int queue_limit) {
  assert(rate_hz >= 0.0);
  assert(rate_hz == 0.0 || burst >= 1.0);
  assert(queue_limit >= 0);
  cap_rate_per_us_ = rate_hz / static_cast<double>(sim::kSecond);
  cap_burst_ = burst;
  cap_queue_limit_ = queue_limit;
  // Buckets start full so steady-state traffic below the rate is never
  // shaped; only bursts overdraw.
  for (Port& p : table_) {
    if (!p.attached()) continue;
    p.tokens = cap_burst_;
    p.tokens_at = sim_.now();
  }
}

std::optional<sim::SimDuration> Network::shape(Port& src) {
  const sim::SimTime now = sim_.now();
  src.tokens =
      std::min(cap_burst_, src.tokens + static_cast<double>(now - src.tokens_at) *
                                            cap_rate_per_us_);
  src.tokens_at = now;
  src.tokens -= 1.0;
  if (src.tokens >= 0.0) return sim::SimDuration{0};
  const double deficit = -src.tokens;
  if (deficit > static_cast<double>(cap_queue_limit_)) {
    src.tokens += 1.0;  // refund: the copy never entered the queue
    return std::nullopt;
  }
  sim::KernelStats& kstats = sim_.kernel_stats();
  ++kstats.capacity_delayed;
  kstats.capacity_queue_peak =
      std::max(kstats.capacity_queue_peak,
               static_cast<std::uint64_t>(std::ceil(deficit)));
  return static_cast<sim::SimDuration>(std::ceil(deficit / cap_rate_per_us_));
}

void Network::send(const Message& msg) {
  transmit(msg, /*deliver=*/true, nullptr);
}

void Network::deliver_multicast_copy(
    const std::shared_ptr<const Message>& wire, NodeId dst, bool lost) {
  SDCM_PROFILE_ONLY(sim_.profile_attribute(wire->type.id()));
  Message m = *wire;
  m.dst = dst;
  Port& dport = port(dst);
  if (probe_ != nullptr) {
    probe_->on_arrival(m, dport.iface.rx_up(), lost, sim_.now());
  }
  if (!dport.iface.rx_up() || lost) {
    ++sim_.kernel_stats().udp_deliveries_dropped_rx;
    sim_.trace().record_child(m.span, sim_.now(), m.dst,
                              sim::TraceCategory::kTransport, tag::kDropRx,
                              type_detail(m));
    return;
  }
  sim::SpanScope scope(sim_.trace(), m.span);
  dport.sink->handle_message(m);
}

void Network::multicast(const Message& msg, int redundant_copies) {
  assert(redundant_copies >= 1);
  Port& src = port(msg.src);
  sim::KernelStats& kstats = sim_.kernel_stats();
  const sim::SpanId cause =
      msg.span != sim::kNoSpan ? msg.span : sim_.trace().ambient();
  resolve_pending_interests();
  const std::vector<Sub>& typed = subscribers_of(msg.type);
  for (int copy = 0; copy < redundant_copies; ++copy) {
    if (probe_ != nullptr) {
      probe_->on_send(msg, src.iface.tx_up(), sim_.now());
    }
    if (!src.iface.tx_up()) {
      ++kstats.udp_copies_dropped_tx;
      sim_.trace().record_child(cause, sim_.now(), msg.src,
                                sim::TraceCategory::kTransport, tag::kDropTx,
                                type_detail(msg));
      continue;
    }
    sim::SimDuration shaping = 0;
    if (capacity_enabled()) {
      const auto admitted = shape(src);
      if (!admitted) {
        ++kstats.udp_copies_dropped_tx;
        ++kstats.capacity_dropped;
        sim_.trace().record_child(cause, sim_.now(), msg.src,
                                  sim::TraceCategory::kTransport,
                                  tag::kDropCapacity, type_detail(msg));
        continue;
      }
      shaping = *admitted;
    }
    counters_.count(msg);
    ++kstats.udp_sent;
    // One immutable wire copy shared by every destination's delivery
    // event. The per-destination closures capture {this, wire, dst,
    // lost} - 32 bytes, inside InlineCallback's 64-byte buffer - where
    // the old by-value Message capture heap-allocated every delivery.
    auto wire = std::make_shared<const Message>([&] {
      Message w = msg;
      w.dst = sim::kNoNode;
      w.via_multicast = true;
      w.span = cause;
      return w;
    }());
    // Only subscribers draw delay/loss, in attach order; the attached
    // nodes that never subscribed cost one bulk counter update.
    std::uint64_t dispatched = 0;
    merge_by_seq(universal_, typed, [&](NodeId dst) {
      if (dst == msg.src) return;
      const auto delay = shaping + draw_delay();
      const bool lost = lost_in_transit();
      ++dispatched;
      sim_.schedule_in(delay, [this, wire, dst, lost]() {
        deliver_multicast_copy(wire, dst, lost);
      });
    });
    kstats.udp_deliveries_skipped +=
        static_cast<std::uint64_t>(order_.size() - 1) - dispatched;
  }
}

bool Network::transmit(Message msg, bool deliver,
                       std::function<void(bool)> on_result) {
  Port& src = port(msg.src);
  const bool tcp = msg.klass == MessageClass::kTransport;
  sim::KernelStats& kstats = sim_.kernel_stats();
  if (msg.span == sim::kNoSpan) msg.span = sim_.trace().ambient();
  const auto delay = draw_delay();
  if (probe_ != nullptr) {
    probe_->on_send(msg, src.iface.tx_up(), sim_.now());
  }
  if (!src.iface.tx_up()) {
    ++(tcp ? kstats.tcp_dropped : kstats.udp_copies_dropped_tx);
    sim_.trace().record_child(msg.span, sim_.now(), msg.src,
                              sim::TraceCategory::kTransport, tag::kDropTx,
                              type_detail(msg));
    if (on_result) {
      sim_.schedule_in(delay, [this, span = msg.span,
                               SDCM_PROFILE_ONLY(t = msg.type.id(), )
                               cb = std::move(on_result)]() {
        SDCM_PROFILE_ONLY(sim_.profile_attribute(t));
        sim::SpanScope scope(sim_.trace(), span);
        cb(false);
      });
    }
    return false;
  }
  sim::SimDuration shaping = 0;
  if (capacity_enabled()) {
    const auto admitted = shape(src);
    if (!admitted) {
      // A capacity drop looks like any other in-flight loss to the
      // sender: TCP's retransmission machinery handles it via cb(false).
      ++(tcp ? kstats.tcp_dropped : kstats.udp_copies_dropped_tx);
      ++kstats.capacity_dropped;
      sim_.trace().record_child(msg.span, sim_.now(), msg.src,
                                sim::TraceCategory::kTransport,
                                tag::kDropCapacity, type_detail(msg));
      if (on_result) {
        sim_.schedule_in(delay, [this, span = msg.span,
                                 SDCM_PROFILE_ONLY(t = msg.type.id(), )
                                 cb = std::move(on_result)]() {
          SDCM_PROFILE_ONLY(sim_.profile_attribute(t));
          sim::SpanScope scope(sim_.trace(), span);
          cb(false);
        });
      }
      return false;
    }
    shaping = *admitted;
  }
  counters_.count(msg);
  ++(tcp ? kstats.tcp_sent : kstats.udp_sent);
  const bool lost = lost_in_transit();
  std::uint32_t index;
  if (in_flight_free_.empty()) {
    index = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  } else {
    index = in_flight_free_.back();
    in_flight_free_.pop_back();
  }
  InFlight& parked = in_flight_[index];
  parked.msg = std::move(msg);
  parked.on_result = std::move(on_result);
  parked.deliver = deliver;
  parked.lost = lost;
  sim_.schedule_in(shaping + delay, [this, index]() { arrive(index); });
  return true;
}

void Network::arrive(std::uint32_t index) {
  // Move the segment out before dispatching: the handler may send, and
  // a send can grow the slab under any reference into it.
  const InFlight segment = std::move(in_flight_[index]);
  in_flight_free_.push_back(index);
  const Message& m = segment.msg;
  SDCM_PROFILE_ONLY(sim_.profile_attribute(m.type.id()));
  Port& dport = port(m.dst);
  if (probe_ != nullptr) {
    probe_->on_arrival(m, dport.iface.rx_up(), segment.lost, sim_.now());
  }
  const bool ok = dport.iface.rx_up() && !segment.lost;
  sim::SpanScope scope(sim_.trace(), m.span);
  if (!ok) {
    sim::KernelStats& ks = sim_.kernel_stats();
    ++(m.klass == MessageClass::kTransport ? ks.tcp_dropped
                                           : ks.udp_deliveries_dropped_rx);
    sim_.trace().record_child(m.span, sim_.now(), m.dst,
                              sim::TraceCategory::kTransport, tag::kDropRx,
                              type_detail(m));
  } else if (segment.deliver) {
    dport.sink->handle_message(m);
  }
  if (segment.on_result) segment.on_result(ok);
}

void Network::deliver_local(const Message& msg) {
  sim::TraceLog& trace = sim_.trace();
  const sim::SpanId span =
      msg.span != sim::kNoSpan ? msg.span : trace.ambient();
  sim::SpanScope scope(trace, span);
  port(msg.dst).sink->handle_message(msg);
}

}  // namespace sdcm::net
