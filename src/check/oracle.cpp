#include "sdcm/check/oracle.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <utility>

namespace sdcm::check {

std::string_view to_string(Invariant invariant) noexcept {
  switch (invariant) {
    case Invariant::kConvergence: return "convergence";
    case Invariant::kMonotonicity: return "monotonicity";
    case Invariant::kCausality: return "causality";
    case Invariant::kLeaseHygiene: return "lease-hygiene";
    case Invariant::kInterface: return "interface";
  }
  return "unknown";
}

std::string Violation::describe() const {
  std::ostringstream os;
  os << "[" << to_string(invariant) << "] t=" << sim::to_seconds(at)
     << "s node=" << node;
  if (span != sim::kNoSpan) os << " span=" << span;
  os << ": " << detail;
  return os.str();
}

ConsistencyOracle::ConsistencyOracle(OracleConfig config)
    : config_(config) {}

void ConsistencyOracle::add_violation(Invariant invariant, SimTime at,
                                      NodeId node, SpanId span,
                                      std::string detail) {
  ++report_.violation_total;
  if (report_.violations.size() < config_.max_stored_violations) {
    report_.violations.push_back(
        Violation{invariant, at, node, span, std::move(detail)});
  }
}

void ConsistencyOracle::begin_run(discovery::ConsistencyObserver& observer,
                                  net::Network& network, SimTime deadline) {
  report_ = OracleReport{};
  deadline_ = deadline;
  armed_ = false;
  last_episode_end_ = 0;
  outages_.clear();
  outage_index_.clear();
  users_.clear();
  departed_.clear();
  last_span_ = sim::kNoSpan;
  spans_.clear();
  known_versions_.clear();
  latest_change_ = 0;
  user_versions_.clear();
  leases_.clear();

  observer.on_service_changed =
      [this](discovery::ServiceVersion version, SimTime at) {
        note_change(version, at);
      };
  observer.on_user_version = [this](NodeId user,
                                    discovery::ServiceVersion version,
                                    SimTime at) {
    on_user_version(user, version, at);
  };
  observer.on_lease_granted = [this](NodeId holder, NodeId user,
                                     SimTime expires_at, SimTime at) {
    on_lease_granted(holder, user, expires_at, at);
  };
  observer.on_lease_dropped = [this](NodeId holder, NodeId user,
                                     SimTime at) {
    on_lease_dropped(holder, user, at);
  };
  observer.on_notification_sent = [this](NodeId holder, NodeId user,
                                         discovery::ServiceVersion version,
                                         SimTime at) {
    on_notification_sent(holder, user, version, at);
  };
  network.set_wire_probe(this);
}

void ConsistencyOracle::arm(std::span<const net::FailureEpisode> plan,
                            std::span<const NodeId> users,
                            std::span<const NodeId> departed) {
  users_.assign(users.begin(), users.end());
  departed_.assign(departed.begin(), departed.end());
  std::sort(departed_.begin(), departed_.end());
  outages_.clear();
  outage_index_.clear();
  last_episode_end_ = 0;
  NodeId max_node = 0;
  for (const net::FailureEpisode& ep : plan) {
    if (ep.mode == net::FailureMode::kNone || ep.duration <= 0) continue;
    const bool tx = ep.mode == net::FailureMode::kTransmitter ||
                    ep.mode == net::FailureMode::kBoth;
    const bool rx = ep.mode == net::FailureMode::kReceiver ||
                    ep.mode == net::FailureMode::kBoth;
    if (tx) outages_.push_back(Outage{ep.node, 0, {ep.start, ep.end()}});
    if (rx) outages_.push_back(Outage{ep.node, 1, {ep.start, ep.end()}});
    max_node = std::max(max_node, ep.node);
    // A permanent leaver's to-horizon outage is scenery, not a fault the
    // survivors need grace to recover from.
    if (!departed_by(ep.node)) {
      last_episode_end_ = std::max(last_episode_end_, ep.end());
    }
  }
  // Sort by (node, direction, start), merge overlapping intervals of the
  // same node and direction in place, then index each (node, direction)
  // range: outage_index_[2 * node + d] is where its intervals begin.
  std::sort(outages_.begin(), outages_.end(),
            [](const Outage& a, const Outage& b) {
              if (a.node != b.node) return a.node < b.node;
              if (a.direction != b.direction) return a.direction < b.direction;
              return a.interval.start < b.interval.start;
            });
  std::size_t merged = 0;
  for (const Outage& o : outages_) {
    if (merged > 0) {
      Outage& last = outages_[merged - 1];
      if (last.node == o.node && last.direction == o.direction &&
          o.interval.start <= last.interval.end) {
        last.interval.end = std::max(last.interval.end, o.interval.end);
        continue;
      }
    }
    outages_[merged++] = o;
  }
  outages_.resize(merged);
  if (!outages_.empty()) {
    outage_index_.assign(2 * static_cast<std::size_t>(max_node) + 3, 0);
    for (const Outage& o : outages_) {
      ++outage_index_[2 * static_cast<std::size_t>(o.node) + o.direction + 1];
    }
    for (std::size_t i = 1; i < outage_index_.size(); ++i) {
      outage_index_[i] += outage_index_[i - 1];
    }
  }
  armed_ = true;
}

bool ConsistencyOracle::departed_by(NodeId node) const {
  return std::binary_search(departed_.begin(), departed_.end(), node);
}

void ConsistencyOracle::note_change(discovery::ServiceVersion version,
                                    SimTime at) {
  (void)at;
  if (!known_version(version)) known_versions_.push_back(version);
  latest_change_ = std::max(latest_change_, version);
}

bool ConsistencyOracle::known_version(
    discovery::ServiceVersion version) const {
  return std::find(known_versions_.begin(), known_versions_.end(), version) !=
         known_versions_.end();
}

const ConsistencyOracle::SpanMeta* ConsistencyOracle::find_span(
    SpanId span) const {
  // A run's span ids are 1, 2, 3, ...: span s sits at index s - 1.
  if (span - 1 < spans_.size() && spans_[span - 1].span == span) {
    return &spans_[span - 1];
  }
  const auto it = std::lower_bound(
      spans_.begin(), spans_.end(), span,
      [](const SpanMeta& meta, SpanId id) { return meta.span < id; });
  return it != spans_.end() && it->span == span ? &*it : nullptr;
}

void ConsistencyOracle::note_span(const SpanMeta& meta) {
  if (spans_.empty() || meta.span > spans_.back().span) {
    spans_.push_back(meta);
    return;
  }
  // An id out of order (already a causality violation): keep the table
  // sorted, and keep the first record of a repeated id.
  const auto it = std::lower_bound(
      spans_.begin(), spans_.end(), meta.span,
      [](const SpanMeta& m, SpanId id) { return m.span < id; });
  if (it == spans_.end() || it->span != meta.span) spans_.insert(it, meta);
}

void ConsistencyOracle::on_record(const sim::TraceRecord& r) {
  if (downstream_ != nullptr) downstream_->on_record(r);
  ++report_.records_checked;

  // Structural span-forest checks, streaming (same invariants as
  // obs::check_span_forest, without materializing the forest).
  if (r.span == sim::kNoSpan) {
    add_violation(Invariant::kCausality, r.at, r.node, r.span,
                  "record without a span id (recording misconfigured?)");
    return;
  }
  if (r.span <= last_span_) {
    add_violation(Invariant::kCausality, r.at, r.node, r.span,
                  "span ids not strictly increasing");
  }
  last_span_ = std::max(last_span_, r.span);

  bool from_change = false;
  if (r.parent != sim::kNoSpan) {
    if (r.parent >= r.span) {
      add_violation(Invariant::kCausality, r.at, r.node, r.span,
                    "parent span id not smaller than child");
    }
    const SpanMeta* parent = find_span(r.parent);
    if (parent == nullptr) {
      add_violation(Invariant::kCausality, r.at, r.node, r.span,
                    "parent span never recorded");
    } else {
      if (parent->at > r.at) {
        add_violation(Invariant::kCausality, r.at, r.node, r.span,
                      "record predates its causal parent");
      }
      from_change = parent->from_change;
    }
  }

  const sim::TraceRole role = sim::trace_role(r.event);
  const std::optional<discovery::ServiceVersion> version =
      r.detail.version();
  const bool is_change = role == sim::TraceRole::kServiceChanged;
  if (is_change) {
    from_change = true;
    if (version) note_change(*version, r.at);
  }
  note_span(SpanMeta{r.span, r.at, from_change});

  // A User that discards its version knowledge on purpose (FRODO's purge
  // of its Manager) rediscovers; re-learning an older version from a
  // stale backup afterwards is designed behaviour, not a silent regress.
  // Reset the monotonicity floor for that user.
  if (role == sim::TraceRole::kVersionReset) user_versions_.erase(r.node);

  if (r.category == sim::TraceCategory::kUpdate && !is_change) {
    // Temporal rule: update-layer traffic carrying version N >= 2 must
    // postdate the change that created version N.
    if (version && *version >= 2 && !known_version(*version)) {
      add_violation(Invariant::kCausality, r.at, r.node, r.span,
                    "update record carries version " +
                        std::to_string(*version) +
                        " before any such change (" +
                        std::string(r.event.str()) + ")");
    }
    // Structural rule, where the propagation tree is unambiguous: a push
    // notification (GENA NOTIFY) exists only because a change did - it
    // must descend from the service_changed root. (Pull-based paths like
    // CM2 polling legitimately have timer roots, so only tags declared
    // kChangeNotification are held to this.)
    if (role == sim::TraceRole::kChangeNotification && !from_change) {
      add_violation(Invariant::kCausality, r.at, r.node, r.span,
                    "notification does not descend from a service_changed "
                    "root (" +
                        std::string(r.event.str()) + ")");
    }
  }
}

void ConsistencyOracle::check_interface(NodeId node, bool direction_is_tx,
                                        bool up, SimTime at,
                                        std::string_view what) {
  if (!armed_) return;
  // Nodes past the index (above every node in the plan) have no outage.
  const std::size_t key =
      2 * static_cast<std::size_t>(node) + (direction_is_tx ? 0 : 1);
  std::size_t first = 0;
  std::size_t last = 0;
  if (key + 1 < outage_index_.size()) {
    first = outage_index_[key];
    last = outage_index_[key + 1];
  }
  bool inside_open = false;   // strictly inside a planned outage
  bool covered_closed = false;  // inside or on the boundary
  for (std::size_t i = first; i < last; ++i) {
    const Interval& iv = outages_[i].interval;
    if (iv.start > at) break;
    if (at <= iv.end) {
      covered_closed = true;
      inside_open = at > iv.start && at < iv.end;
    }
  }
  // Boundary instants are unchecked: the transition event and wire
  // activity at the same timestamp may run in either order.
  if (up && inside_open) {
    add_violation(Invariant::kInterface, at, node, sim::kNoSpan,
                  std::string(what) +
                      " interface is up strictly inside a planned outage");
  } else if (!up && !covered_closed) {
    add_violation(Invariant::kInterface, at, node, sim::kNoSpan,
                  std::string(what) +
                      " interface is down outside every planned outage");
  }
}

void ConsistencyOracle::on_send(const net::Message& msg, bool tx_up,
                               SimTime at) {
  ++report_.wire_sends;
  check_interface(msg.src, /*direction_is_tx=*/true, tx_up, at, "tx");
}

void ConsistencyOracle::on_arrival(const net::Message& msg, bool rx_up,
                                   bool lost, SimTime at) {
  (void)lost;
  ++report_.wire_arrivals;
  check_interface(msg.dst, /*direction_is_tx=*/false, rx_up, at, "rx");
}

void ConsistencyOracle::on_user_version(NodeId user,
                                        discovery::ServiceVersion version,
                                        SimTime at) {
  ++report_.version_observations;
  auto& current = user_versions_[user];
  if (version < current) {
    add_violation(Invariant::kMonotonicity, at, user, sim::kNoSpan,
                  "user regressed from version " + std::to_string(current) +
                      " to " + std::to_string(version));
  }
  current = std::max(current, version);
  if (version >= 2 && !known_version(version)) {
    add_violation(Invariant::kCausality, at, user, sim::kNoSpan,
                  "user holds version " + std::to_string(version) +
                      " before any such change");
  }
}

void ConsistencyOracle::on_lease_granted(NodeId holder, NodeId user,
                                         SimTime expires_at, SimTime at) {
  (void)at;
  ++report_.leases_tracked;
  leases_[{holder, user}] = LeaseState{expires_at, true};
}

void ConsistencyOracle::on_lease_dropped(NodeId holder, NodeId user,
                                         SimTime at) {
  const auto it = leases_.find({holder, user});
  if (it == leases_.end() || !it->second.active) {
    add_violation(Invariant::kLeaseHygiene, at, holder, sim::kNoSpan,
                  "dropped a lease for user " + std::to_string(user) +
                      " that was never granted");
    return;
  }
  // A drop may be early (cancellation, REX, demotion) but a drop *after*
  // expiry must happen promptly - a late purge means expired state
  // lingered and was acted upon.
  if (at > it->second.expires_at + config_.lease_expiry_slack) {
    add_violation(
        Invariant::kLeaseHygiene, at, holder, sim::kNoSpan,
        "lease for user " + std::to_string(user) + " purged " +
            std::to_string(sim::to_seconds(at - it->second.expires_at)) +
            "s after expiry");
  }
  it->second.active = false;
}

void ConsistencyOracle::on_notification_sent(
    NodeId holder, NodeId user, discovery::ServiceVersion version,
    SimTime at) {
  ++report_.notifications_checked;
  (void)version;
  const auto it = leases_.find({holder, user});
  if (it == leases_.end() || !it->second.active) {
    add_violation(Invariant::kLeaseHygiene, at, holder, sim::kNoSpan,
                  "notification to user " + std::to_string(user) +
                      " without an active lease");
    return;
  }
  if (at > it->second.expires_at) {
    add_violation(Invariant::kLeaseHygiene, at, holder, sim::kNoSpan,
                  "notification to user " + std::to_string(user) +
                      " after its lease expired");
  }
}

OracleReport ConsistencyOracle::finish() {
  // Leaked leases: still active long after expiry at end of run means
  // the holder's purge path never ran.
  for (const auto& [key, lease] : leases_) {
    if (lease.active &&
        lease.expires_at + config_.lease_expiry_slack < deadline_) {
      add_violation(Invariant::kLeaseHygiene, deadline_, key.first,
                    sim::kNoSpan,
                    "lease for user " + std::to_string(key.second) +
                        " expired in-run but was never dropped");
    }
  }

  // Convergence: after a quiet tail, every tracked user acts on the
  // latest version. Gated on the run shape (see OracleConfig).
  if (config_.require_convergence && latest_change_ >= 2 &&
      last_episode_end_ + config_.convergence_grace <= deadline_) {
    for (const NodeId user : users_) {
      if (departed_by(user)) {
        continue;  // left for good mid-run; nothing to converge
      }
      const auto it = user_versions_.find(user);
      const discovery::ServiceVersion held =
          it == user_versions_.end() ? 0 : it->second;
      if (held < latest_change_) {
        add_violation(Invariant::kConvergence, deadline_, user, sim::kNoSpan,
                      "user holds version " + std::to_string(held) +
                          " at deadline, latest change is " +
                          std::to_string(latest_change_));
      }
    }
  }
  return report_;
}

}  // namespace sdcm::check
