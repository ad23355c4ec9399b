#pragma once

#include <map>

#include "sdcm/discovery/node.hpp"
#include "sdcm/discovery/node_map.hpp"
#include "sdcm/discovery/observer.hpp"
#include "sdcm/discovery/service.hpp"
#include "sdcm/jini/config.hpp"
#include "sdcm/jini/messages.hpp"

namespace sdcm::jini {

/// Jini service provider (the paper's Manager).
///
/// Discovers lookup services (multicast request burst + announcement
/// listening), registers every service with every known lookup service
/// (the 2-Registry topology doubles the traffic, Table 2), renews the
/// registration lease, and on a service change re-registers the bumped
/// description - the lookup service turns that into RemoteEvents.
///
/// Failure handling: a REX on any exchange purges that lookup service;
/// the next announcement re-discovers it and the Manager re-registers
/// with its *current* description (PR1 - this is how updates survive
/// registry-path outages).
class JiniManager : public discovery::Node {
 public:
  JiniManager(sim::Simulator& simulator, net::Network& network, NodeId id,
              JiniConfig config = {},
              discovery::ConsistencyObserver* observer = nullptr);

  void add_service(discovery::ServiceDescription sd);
  void change_service(discovery::ServiceId service);
  void change_service(discovery::ServiceId service,
                      const discovery::AttributeList& updates);
  void start() override;

  /// Workload churn: forget every lookup service (cancelling renewals)
  /// and stop discovering; services_ survives, so the rejoin (default
  /// start()) re-registers the current descriptions - PR1, the same path
  /// updates already take after a registry outage.
  void depart() override;

  [[nodiscard]] const discovery::ServiceDescription& service(
      discovery::ServiceId service) const;
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
  void register_service(NodeId registry, discovery::ServiceId service);
  void renew_registration(NodeId registry, discovery::ServiceId service);
  void handle_register_response(const net::Message& msg);
  void handle_renew_response(const net::Message& msg);

  struct PerService {
    bool registered = false;
    sim::EventId renew_timer = sim::kInvalidEventId;
  };
  struct RegistryState {
    sim::SimTime last_heard = 0;
    sim::EventId silence_timer = sim::kInvalidEventId;
    std::map<discovery::ServiceId, PerService> services;
  };

  JiniConfig config_;
  discovery::ConsistencyObserver* observer_;
  std::map<discovery::ServiceId, discovery::ServiceDescription> services_;
  discovery::NodeMap<NodeId, RegistryState> registries_;
  sim::PeriodicTimer request_timer_;
  int requests_sent_ = 0;
};

}  // namespace sdcm::jini
