#include "sdcm/discovery/observer.hpp"

#include <algorithm>

namespace sdcm::discovery {

void ConsistencyObserver::track_user(NodeId user) {
  if (tracks(user)) return;
  if (user >= tracked_.size()) tracked_.resize(std::size_t{user} + 1, false);
  tracked_[user] = true;
  users_.push_back(user);
}

bool ConsistencyObserver::tracks(NodeId user) const noexcept {
  return user < tracked_.size() && tracked_[user];
}

void ConsistencyObserver::service_changed(ServiceVersion version,
                                          sim::SimTime at) {
  changes_.emplace(version, at);
  if (on_service_changed) on_service_changed(version, at);
}

void ConsistencyObserver::user_version(NodeId user, ServiceVersion version,
                                       sim::SimTime at) {
  if (on_user_version) on_user_version(user, version, at);
}

void ConsistencyObserver::lease_granted(NodeId holder, NodeId user,
                                        sim::SimTime expires_at,
                                        sim::SimTime at) {
  if (on_lease_granted) on_lease_granted(holder, user, expires_at, at);
}

void ConsistencyObserver::lease_dropped(NodeId holder, NodeId user,
                                        sim::SimTime at) {
  if (on_lease_dropped) on_lease_dropped(holder, user, at);
}

void ConsistencyObserver::notification_sent(NodeId holder, NodeId user,
                                            ServiceVersion version,
                                            sim::SimTime at) {
  if (on_notification_sent) on_notification_sent(holder, user, version, at);
}

void ConsistencyObserver::user_reached(NodeId user, ServiceVersion version,
                                       sim::SimTime at) {
  if (!tracks(user)) return;
  // try_emplace looks the key up before it builds a node: most reports
  // repeat a version the User already reached.
  const bool inserted =
      reached_.try_emplace(std::make_pair(user, version), at).second;
  if (inserted && on_user_reached) on_user_reached(user, version, at);
}

std::optional<sim::SimTime> ConsistencyObserver::change_time(
    ServiceVersion version) const {
  const auto it = changes_.find(version);
  if (it == changes_.end()) return std::nullopt;
  return it->second;
}

std::optional<sim::SimTime> ConsistencyObserver::reach_time(
    NodeId user, ServiceVersion version) const {
  const auto it = reached_.find(std::make_pair(user, version));
  if (it == reached_.end()) return std::nullopt;
  return it->second;
}

bool ConsistencyObserver::all_consistent_by(ServiceVersion version,
                                            sim::SimTime deadline) const {
  return std::all_of(users_.begin(), users_.end(), [&](NodeId user) {
    const auto t = reach_time(user, version);
    return t.has_value() && *t < deadline;
  });
}

}  // namespace sdcm::discovery
