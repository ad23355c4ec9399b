#pragma once

#include <map>

#include "sdcm/discovery/lease_table.hpp"
#include "sdcm/discovery/node.hpp"
#include "sdcm/discovery/node_map.hpp"
#include "sdcm/discovery/observer.hpp"
#include "sdcm/discovery/recovery.hpp"
#include "sdcm/discovery/service.hpp"
#include "sdcm/upnp/config.hpp"
#include "sdcm/upnp/messages.hpp"

namespace sdcm::upnp {

/// UPnP root device hosting one or more services (the paper's Manager).
///
/// Behaviour modelled (Section 4.4, Table 4):
///  - periodic multicast ssdp:alive announcements;
///  - unicast UDP responses to matching M-SEARCH queries;
///  - GENA subscriptions with leases; expired subscribers are purged;
///  - on a service change, an *invalidation* NOTIFY per subscriber over
///    TCP; a REX purges that subscriber (per the GENA rule that an
///    undeliverable event cancels the subscription);
///  - PR4: a renewal from an unknown User is answered with an error that
///    makes the User resubscribe.
///
/// There is deliberately no SRN2 (retry on renewal) and resubscription
/// does not push the current description - that combination is what makes
/// the paper's Section 6.2 example User stay inconsistent forever.
class UpnpManager : public discovery::Node {
 public:
  UpnpManager(sim::Simulator& simulator, net::Network& network, NodeId id,
              UpnpConfig config = {},
              discovery::ConsistencyObserver* observer = nullptr);

  /// Recovery techniques this model implements (Table 2 row). SRC1/SRN1
  /// are "TCP-dependent": provided by the transport, not the protocol.
  static discovery::TechniqueSet techniques() {
    using discovery::RecoveryTechnique;
    return {RecoveryTechnique::kSRC1, RecoveryTechnique::kSRN1,
            RecoveryTechnique::kPR4, RecoveryTechnique::kPR5};
  }

  /// Registers a service before start(); the manager field is filled in.
  void add_service(discovery::ServiceDescription sd);

  /// Bumps the service's version and notifies every subscriber with an
  /// invalidation message. `mutate` (optional) edits the attribute list.
  void change_service(discovery::ServiceId service);
  void change_service(discovery::ServiceId service,
                      const discovery::AttributeList& updates);

  void start() override;

  /// Graceful departure: multicast ssdp:byebye for every service and stop
  /// announcing (not used in the paper's failure experiments, where nodes
  /// fail abruptly, but part of the protocol).
  void shutdown();

  /// Abrupt workload departure: like shutdown() but without the byebye
  /// traffic - the churn generator pairs it with an interface outage, so
  /// nothing could leave the node anyway.
  void depart() override;

  /// One immediate ssdp:alive round (workload storm bursts).
  void announce_now() override;

  [[nodiscard]] const discovery::ServiceDescription& service(
      discovery::ServiceId service) const;
  [[nodiscard]] std::size_t subscriber_count(
      discovery::ServiceId service) const;
  [[nodiscard]] bool has_subscriber(discovery::ServiceId service,
                                    NodeId user) const;

 private:
  void on_message(const net::Message& msg) override;
  [[nodiscard]] std::optional<std::vector<net::MessageType>>
  multicast_interests() const override;
  void announce_all();
  void handle_msearch(const net::Message& msg);
  void handle_get(const net::Message& msg);
  void handle_subscribe(const net::Message& msg);
  void handle_renew(const net::Message& msg);
  void notify_subscriber(discovery::ServiceId service, NodeId user);
  void purge_subscriber(discovery::ServiceId service, NodeId user,
                        sim::Atom why);
  void bumped(discovery::ServiceDescription& sd);

  /// Leased GENA subscription; lifecycle from the plugin layer's
  /// shared LeaseEntry (grant/renew/cancel).
  struct Subscription : discovery::LeaseEntry {};

  UpnpConfig config_;
  discovery::ConsistencyObserver* observer_;
  std::map<discovery::ServiceId, discovery::ServiceDescription> services_;
  /// Per-service subscriber tables: the inner table scales with N users,
  /// so it lives in a dense NodeMap slab (no per-subscribe tree node, no
  /// per-notify allocation).
  std::map<discovery::ServiceId, discovery::NodeMap<NodeId, Subscription>>
      subs_;
  sim::PeriodicTimer announce_timer_;
  bool running_ = false;
};

}  // namespace sdcm::upnp
