#pragma once

#include <optional>

#include "sdcm/discovery/node.hpp"
#include "sdcm/discovery/node_map.hpp"
#include "sdcm/discovery/observer.hpp"
#include "sdcm/discovery/service.hpp"
#include "sdcm/jini/config.hpp"
#include "sdcm/jini/messages.hpp"

namespace sdcm::jini {

/// Jini client (the paper's User). 3-party subscription only.
///
/// For every discovered lookup service it (1) registers for event
/// notification and (2) *always* performs a lookup afterwards - PR2, the
/// workaround for Jini's future-registrations-only notification anomaly.
/// RemoteEvents and LookupResponses carry full descriptions; the User
/// keeps the highest version seen (Jini has no PR5: the cached service is
/// never purged, only replaced by newer data).
///
/// PR3 as Jini implements it: when the event-lease renewal is answered
/// with an error, the User purges the lookup service and redoes discovery,
/// notification request and query.
class JiniUser : public discovery::Node {
 public:
  JiniUser(sim::Simulator& simulator, net::Network& network, NodeId id,
           Template requirement, JiniConfig config = {},
           discovery::ConsistencyObserver* observer = nullptr);

  void start() override;

  /// Workload churn: forget every lookup service and stop all timers;
  /// the cached description survives (Jini has no PR5 even across a
  /// process restart - it is replaced, never purged). rejoin() redoes
  /// discovery from scratch via the default start().
  void depart() override;

  [[nodiscard]] const std::optional<discovery::ServiceDescription>& cached()
      const noexcept {
    return sd_;
  }
  [[nodiscard]] std::size_t known_registry_count() const {
    return registries_.size();
  }
  [[nodiscard]] bool knows_registry(NodeId registry) const {
    return registries_.contains(registry);
  }

 private:
  void on_message(const net::Message& msg) override;
  [[nodiscard]] std::optional<std::vector<net::MessageType>>
  multicast_interests() const override;
  void send_discovery_request();
  void registry_heard(NodeId registry);
  void purge_registry(NodeId registry, sim::Atom why);
  void register_event(NodeId registry);
  void send_lookup(NodeId registry);
  void renew_event(NodeId registry);
  void handle_event_response(const net::Message& msg);
  void handle_renew_event_response(const net::Message& msg);
  void handle_lookup_response(const net::Message& msg);
  void handle_remote_event(const net::Message& msg);
  void store(const discovery::ServiceDescription& sd);

  struct RegistryState {
    sim::EventId silence_timer = sim::kInvalidEventId;
    bool event_registered = false;
    sim::EventId renew_timer = sim::kInvalidEventId;
  };

  Template requirement_;
  JiniConfig config_;
  discovery::ConsistencyObserver* observer_;
  std::optional<discovery::ServiceDescription> sd_;
  discovery::NodeMap<NodeId, RegistryState> registries_;
  sim::PeriodicTimer request_timer_;
  sim::PeriodicTimer poll_timer_;  ///< CM2, active when poll_period > 0
  int requests_sent_ = 0;
};

}  // namespace sdcm::jini
