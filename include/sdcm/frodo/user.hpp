#pragma once

#include <optional>
#include <set>

#include "sdcm/discovery/observer.hpp"
#include "sdcm/frodo/client.hpp"

namespace sdcm::frodo {

/// FRODO service consumer. Picks the subscription mode from the
/// discovered Manager's device class: direct (2-party) for 300D Managers,
/// via the Central (3-party) for 3C/3D Managers.
///
/// Discovery: multicast search at startup; once a Central is known,
/// unicast Registry queries first with multicast fallback when the
/// Registry does not respond (Table 4's PR5 implementation). A
/// notification interest is registered at the Central (PR1) with the
/// version already held, so existing registrations are notified exactly
/// when they are newer.
///
/// Recovery: answers ResubscribeRequests (PR3/PR4) with a resubscription
/// whose ack carries the updated description; purges the Manager on a
/// ServicePurged from the Central or after consecutive failed 2-party
/// renewals, then rediscovers (PR5); requests missed versions when a
/// critical update reveals a sequence gap (SRC2).
class FrodoUser : public FrodoClient {
 public:
  FrodoUser(sim::Simulator& simulator, net::Network& network, NodeId id,
            DeviceClass device_class, Matching requirement,
            FrodoConfig config = {},
            discovery::ConsistencyObserver* observer = nullptr);

  void start() override;

  /// Workload churn: FrodoClient::depart plus the purge_manager state
  /// reset (emitting the same "frodo.manager.purged" trace event the
  /// oracle keys its monotonicity-floor reset on), minus the PR5
  /// rediscovery kick - the rejoin restarts discovery instead.
  void depart() override;

  [[nodiscard]] const std::optional<discovery::ServiceDescription>& cached()
      const noexcept {
    return sd_;
  }
  [[nodiscard]] bool has_manager() const noexcept {
    return manager_ != sim::kNoNode;
  }
  [[nodiscard]] NodeId manager() const noexcept { return manager_; }
  [[nodiscard]] bool is_subscribed() const noexcept { return subscribed_; }
  [[nodiscard]] bool two_party() const noexcept {
    return uses_two_party_subscription(manager_class_);
  }
  /// All versions ever held (SRC2 completeness; contiguous for critical
  /// services once recovery ran).
  [[nodiscard]] const std::set<ServiceVersion>& versions_seen()
      const noexcept {
    return versions_seen_;
  }

 protected:
  void on_central_discovered() override;
  void on_central_changed() override;
  void on_central_lost() override;

 private:
  void on_message(const net::Message& msg) override;
  void begin_search();
  void search_attempt();
  /// search_payload_, built on first use.
  const net::Payload& search_payload();
  void stop_search();
  void send_notification_request();
  void adopt(const discovery::ServiceDescription& sd,
             DeviceClass manager_class);
  void store_sd(const discovery::ServiceDescription& sd, bool critical);
  void request_missing_versions(ServiceId service);
  void fetch_invalidated_version();
  void subscribe();
  void send_renewal();
  void schedule_renewal(sim::SimDuration delay);
  void purge_manager(sim::Atom why);

  Matching requirement_;
  /// The search requests for requirement_, which never changes: each
  /// is built on its first send and shared by every later one, so
  /// topology build allocates no request a User has not sent yet.
  net::Payload search_payload_;
  net::Payload multicast_search_payload_;
  discovery::ConsistencyObserver* observer_;

  std::optional<discovery::ServiceDescription> sd_;
  NodeId manager_ = sim::kNoNode;
  DeviceClass manager_class_ = DeviceClass::k3D;
  std::set<ServiceVersion> versions_seen_;
  bool critical_ = false;
  /// Invalidation-mode bookkeeping: newest version announced as changed,
  /// and whether a (deferred, coalescing) fetch is already scheduled.
  ServiceVersion invalidated_version_ = 0;
  bool fetch_scheduled_ = false;

  bool subscribed_ = false;
  bool subscribe_in_flight_ = false;
  sim::EventId renew_timer_ = sim::kInvalidEventId;

  bool searching_ = false;
  int search_attempts_ = 0;
  sim::EventId search_timer_ = sim::kInvalidEventId;
  sim::PeriodicTimer poll_timer_;  ///< CM2, active when poll_period > 0
};

}  // namespace sdcm::frodo
