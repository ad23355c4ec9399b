#pragma once

#include <optional>
#include <string>

#include "sdcm/discovery/node.hpp"
#include "sdcm/discovery/observer.hpp"
#include "sdcm/discovery/service.hpp"
#include "sdcm/upnp/config.hpp"
#include "sdcm/upnp/messages.hpp"

namespace sdcm::upnp {

/// What the User is looking for (Section 1: "a User is an entity that has
/// a set of requirements for the services it needs").
struct Requirement {
  std::string device_type;
  std::string service_type;

  [[nodiscard]] bool matches(const std::string& dev,
                             const std::string& svc) const {
    return device_type == dev && service_type == svc;
  }
};

/// UPnP control point (the paper's User). 2-party subscription only.
///
/// Life cycle:
///  1. Discovery: multicast M-SEARCH (retried periodically) and listening
///     for ssdp:alive. A match triggers a TCP description fetch and a GENA
///     subscription.
///  2. Consistency: a NOTIFY invalidation triggers a description re-fetch
///     ("consecutive polling by the User retrieves the updated data").
///  3. PR4: a renewal rejected by the Manager triggers a resubscription -
///     which does NOT refresh the description (DESIGN.md decision 4).
///  4. PR5: if nothing is heard from the Manager for the cache lease, the
///     User purges it, resumes M-SEARCH, and on rediscovery re-fetches the
///     description (this is UPnP's high-failure-rate recovery in Fig. 4).
class UpnpUser : public discovery::Node {
 public:
  UpnpUser(sim::Simulator& simulator, net::Network& network, NodeId id,
           Requirement requirement, UpnpConfig config = {},
           discovery::ConsistencyObserver* observer = nullptr);

  void start() override;

  /// Workload churn: forget the Manager and every in-flight exchange and
  /// go quiet, as a process restart would. rejoin() (the default, i.e.
  /// start()) re-enters discovery from scratch.
  void depart() override;

  [[nodiscard]] bool has_manager() const noexcept {
    return manager_ != sim::kNoNode;
  }
  [[nodiscard]] NodeId manager() const noexcept { return manager_; }
  [[nodiscard]] const std::optional<discovery::ServiceDescription>& cached()
      const noexcept {
    return sd_;
  }
  [[nodiscard]] bool is_subscribed() const noexcept { return subscribed_; }

 private:
  void on_message(const net::Message& msg) override;
  [[nodiscard]] std::optional<std::vector<net::MessageType>>
  multicast_interests() const override;
  void handle_presence(NodeId manager, discovery::ServiceId service,
                       const std::string& device_type,
                       const std::string& service_type);
  void handle_description(const net::Message& msg);
  void handle_subscribe_response(const net::Message& msg);
  void handle_renew_response(const net::Message& msg);
  void handle_notify(const net::Message& msg);
  void handle_byebye(const net::Message& msg);

  void send_msearch();
  void fetch_description();
  void subscribe();
  void renew();
  void refresh_cache_lease();
  void purge_manager(sim::Atom why);

  Requirement requirement_;
  UpnpConfig config_;
  discovery::ConsistencyObserver* observer_;

  NodeId manager_ = sim::kNoNode;
  discovery::ServiceId service_ = 0;
  std::optional<discovery::ServiceDescription> sd_;
  sim::EventId cache_expiry_ = sim::kInvalidEventId;

  bool subscribed_ = false;
  discovery::Lease sub_lease_;
  sim::EventId renew_timer_ = sim::kInvalidEventId;
  sim::EventId sub_expiry_ = sim::kInvalidEventId;

  bool fetch_in_flight_ = false;
  bool fetch_pending_ = false;  ///< a fetch failed; retry on next contact
  bool subscribe_in_flight_ = false;
  sim::EventId retry_timer_ = sim::kInvalidEventId;
  sim::PeriodicTimer search_timer_;
  sim::PeriodicTimer poll_timer_;  ///< CM2, active when poll_period > 0
};

}  // namespace sdcm::upnp
