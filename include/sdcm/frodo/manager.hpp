#pragma once

#include <map>

#include "sdcm/discovery/lease_table.hpp"
#include "sdcm/discovery/node_map.hpp"
#include "sdcm/discovery/observer.hpp"
#include "sdcm/frodo/client.hpp"

namespace sdcm::frodo {

/// FRODO service provider. The device class selects the subscription
/// mode (Section 4.2): 3C/3D Managers delegate subscriptions to the
/// Central (3-party); 300D Managers maintain their own subscribers and
/// notify them directly (2-party), while still registering (and updating)
/// the service at the Central, which is the "+2" in the N+2 message
/// count of Table 2.
///
/// Recovery (Table 4):
///  - SRN1: selected messages (registration, updates) are acknowledged
///    and retransmitted a bounded number of times;
///  - SRC1/SRC2 for services flagged critical: unlimited periodic
///    retransmission plus a retained history of versions served on
///    request;
///  - SRN2 (2-party only): a failed update notification is retried when
///    the inconsistent User's next subscription renewal arrives;
///  - PR1: after losing the Central, re-registration on rediscovery
///    carries the current (possibly changed) description;
///  - PR4 (2-party): a renewal from a purged User is answered with a
///    resubscription request whose response carries the updated SD.
class FrodoManager : public FrodoClient {
 public:
  FrodoManager(sim::Simulator& simulator, net::Network& network, NodeId id,
               DeviceClass device_class, FrodoConfig config = {},
               discovery::ConsistencyObserver* observer = nullptr);

  /// Registers a service before start(). `critical` selects the
  /// critical-update scenario (SRC1/SRC2) for this service.
  void add_service(discovery::ServiceDescription sd, bool critical = false);

  void change_service(ServiceId service);
  void change_service(ServiceId service,
                      const discovery::AttributeList& updates);

  void start() override;

  /// Workload churn: FrodoClient::depart plus dropping any 2-party
  /// subscribers; services_ survives, so the rejoin re-registers the
  /// current descriptions at the Central (PR1).
  void depart() override;

  [[nodiscard]] bool is_registered(ServiceId service) const;
  [[nodiscard]] std::size_t subscriber_count(ServiceId service) const;
  [[nodiscard]] bool has_subscriber(ServiceId service, NodeId user) const;
  [[nodiscard]] bool marked_inconsistent(ServiceId service,
                                         NodeId user) const;
  [[nodiscard]] const discovery::ServiceDescription& service(
      ServiceId service) const;

 protected:
  void on_central_discovered() override;
  void on_central_changed() override;
  void on_central_lost() override;

 private:
  void on_message(const net::Message& msg) override;
  [[nodiscard]] std::optional<std::vector<net::MessageType>>
  multicast_interests() const override;
  void register_service(ServiceId service);
  void renew_registration(ServiceId service);
  void send_update_to_central(ServiceId service);
  void send_update_to_user(ServiceId service, NodeId user);
  void handle_register_ack(const net::Message& msg);
  void handle_reregister_request(const net::Message& msg);
  void handle_search(const net::Message& msg, const Matching& matching,
                     NodeId user);
  void handle_subscription_request(const net::Message& msg);
  void handle_subscription_renew(const net::Message& msg);
  void handle_update_request(const net::Message& msg);
  void purge_subscriber(ServiceId service, NodeId user, sim::Atom why);
  void arm_subscription_expiry(ServiceId service, NodeId user);

  struct ServiceState {
    discovery::ServiceDescription sd;
    bool critical = false;
    bool registered = false;
    /// Time of the last change, and the gap between the last two changes
    /// (-1 until the second change) - the adaptive propagation signal.
    sim::SimTime last_change = 0;
    sim::SimDuration previous_change_gap = -1;
    /// The Central missed an update (SRN1 exhausted while it stayed
    /// reachable enough to keep its lease); resend on the next successful
    /// exchange - the Manager-side analogue of SRN2, required for the
    /// eventual-consistency guarantee of the Configuration Update
    /// Principles.
    bool central_stale = false;
    sim::EventId renew_timer = sim::kInvalidEventId;
    Token pending_central_update = 0;
    /// SRC2 history: every version ever served.
    std::map<ServiceVersion, discovery::ServiceDescription> history;
  };
  struct Subscription : discovery::LeaseEntry {
    /// SRN2 bookkeeping: set when an update notification exhausted its
    /// retransmissions; holds the version the User is missing.
    ServiceVersion inconsistent_since = 0;
    Token pending_update = 0;
  };

  discovery::ConsistencyObserver* observer_;
  std::map<ServiceId, ServiceState> services_;
  /// 2-party subscriptions (300D Managers only).
  /// Per-service 2-party subscribers (N-scaling), in dense NodeMap slabs.
  std::map<ServiceId, discovery::NodeMap<NodeId, Subscription>> subs_;
};

}  // namespace sdcm::frodo
