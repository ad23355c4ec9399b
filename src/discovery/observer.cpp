#include "sdcm/discovery/observer.hpp"

#include <algorithm>

namespace sdcm::discovery {

void ConsistencyObserver::track_user(NodeId user) {
  if (reached_.try_emplace(user).second) users_.push_back(user);
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
  std::vector<Reach>* reached = reached_.find(user);
  if (reached == nullptr) return;
  // Most reports repeat a version the User already reached.
  for (const Reach& r : *reached) {
    if (r.version == version) return;
  }
  reached->push_back({version, at});
  if (on_user_reached) on_user_reached(user, version, at);
}

std::optional<sim::SimTime> ConsistencyObserver::change_time(
    ServiceVersion version) const {
  const auto it = changes_.find(version);
  if (it == changes_.end()) return std::nullopt;
  return it->second;
}

std::optional<sim::SimTime> ConsistencyObserver::reach_time(
    NodeId user, ServiceVersion version) const {
  const std::vector<Reach>* reached = reached_.find(user);
  if (reached == nullptr) return std::nullopt;
  for (const Reach& r : *reached) {
    if (r.version == version) return r.at;
  }
  return std::nullopt;
}

bool ConsistencyObserver::all_consistent_by(ServiceVersion version,
                                            sim::SimTime deadline) const {
  return std::all_of(users_.begin(), users_.end(), [&](NodeId user) {
    const auto t = reach_time(user, version);
    return t.has_value() && *t < deadline;
  });
}

}  // namespace sdcm::discovery
