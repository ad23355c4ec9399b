#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "sdcm/discovery/node_map.hpp"
#include "sdcm/discovery/service.hpp"

namespace sdcm::discovery {

/// Records the ground-truth consistency timeline of one monitored service
/// across a run: when the Manager changed it (C(i) in the Update Metrics)
/// and when each User first held the new version (U(i, j)).
///
/// Protocol models call `service_changed` / `user_reached` at the moment
/// the state transition happens; the metrics layer never inspects
/// protocol internals.
class ConsistencyObserver {
 public:
  /// Declares a User whose consistency is being tracked. Users that never
  /// reach the new version simply have no `user_reached` record.
  void track_user(NodeId user);

  /// The Manager changed the monitored service to `version` at `at`.
  void service_changed(ServiceVersion version, sim::SimTime at);

  /// `user` first obtained `version` at time `at`. Calls for versions or
  /// users not being tracked, or repeat calls for the same (user, version),
  /// are ignored, so protocol code can report unconditionally.
  void user_reached(NodeId user, ServiceVersion version, sim::SimTime at);

  // Oracle hooks. Protocol models call these unconditionally at the
  // moment the event happens; each is a no-op unless the matching
  // std::function below is installed (the consistency oracle in
  // src/check installs all of them, the metrics layer installs none).

  /// `user` now acts on `version` of the monitored service (its local
  /// cached description was overwritten). Unlike user_reached this fires
  /// on every store, including regressions — that is the point.
  void user_version(NodeId user, ServiceVersion version, sim::SimTime at);

  /// `holder` granted or renewed `user`'s subscription/event lease,
  /// now expiring at `expires_at`.
  void lease_granted(NodeId holder, NodeId user, sim::SimTime expires_at,
                     sim::SimTime at);

  /// `holder` dropped `user`'s lease (expiry purge, cancellation, or a
  /// wholesale table wipe on shutdown/demotion).
  void lease_dropped(NodeId holder, NodeId user, sim::SimTime at);

  /// `holder` sent `user` an update notification carrying `version`.
  void notification_sent(NodeId holder, NodeId user, ServiceVersion version,
                         sim::SimTime at);

  /// Tracked users in track_user order.
  [[nodiscard]] const std::vector<NodeId>& users() const noexcept {
    return users_;
  }

  /// Time of the change to `version`, if it happened.
  [[nodiscard]] std::optional<sim::SimTime> change_time(
      ServiceVersion version) const;

  /// Time `user` first reached `version`, if it did.
  [[nodiscard]] std::optional<sim::SimTime> reach_time(
      NodeId user, ServiceVersion version) const;

  /// True iff every tracked user reached `version` by `deadline`
  /// (strictly before, matching the metric's U < D).
  [[nodiscard]] bool all_consistent_by(ServiceVersion version,
                                       sim::SimTime deadline) const;

  /// Invoked on every *first* reach of a (user, version) pair - the
  /// experiment harness uses it to snapshot message counters at the
  /// moment consistency is attained (the Update Efficiency window).
  std::function<void(NodeId, ServiceVersion, sim::SimTime)> on_user_reached;

  // Oracle hook sinks, matching the member functions above. Separate
  // from on_user_reached so the harness and the oracle coexist.
  std::function<void(ServiceVersion, sim::SimTime)> on_service_changed;
  std::function<void(NodeId, ServiceVersion, sim::SimTime)> on_user_version;
  std::function<void(NodeId, NodeId, sim::SimTime, sim::SimTime)>
      on_lease_granted;
  std::function<void(NodeId, NodeId, sim::SimTime)> on_lease_dropped;
  std::function<void(NodeId, NodeId, ServiceVersion, sim::SimTime)>
      on_notification_sent;

 private:
  struct Reach {
    ServiceVersion version;
    sim::SimTime at;
  };

  std::vector<NodeId> users_;
  /// Per tracked User, dense by NodeId (ids are small and dense): the
  /// versions it reached, in first-report order. A User holds one or
  /// two, so a lookup is an index and a short scan.
  NodeMap<NodeId, std::vector<Reach>> reached_;
  std::map<ServiceVersion, sim::SimTime> changes_;
};

}  // namespace sdcm::discovery
