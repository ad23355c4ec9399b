#include "sdcm/jini/manager.hpp"

#include <stdexcept>

#include "sdcm/net/tcp.hpp"
#include "sdcm/obs/instrument.hpp"
#include "sdcm/obs/profile_site.hpp"

namespace sdcm::jini {

using discovery::ServiceDescription;
using discovery::ServiceId;
using net::Message;
using net::MessageClass;

JiniManager::JiniManager(sim::Simulator& simulator, net::Network& network,
                         NodeId id, JiniConfig config,
                         discovery::ConsistencyObserver* observer)
    : Node(simulator, network, id, "jini-manager"),
      config_(config),
      observer_(observer) {}

void JiniManager::add_service(ServiceDescription sd) {
  sd.manager = this->id();
  const auto service = sd.id;
  services_.insert_or_assign(service, std::move(sd));
}

const ServiceDescription& JiniManager::service(ServiceId service) const {
  const auto it = services_.find(service);
  if (it == services_.end()) throw std::out_of_range("unknown service");
  return it->second;
}

void JiniManager::start() {
  send_discovery_request();
  SDCM_PROFILE_TIMER(request_timer_, "timer.jini.discovery_request");
  request_timer_.start(simulator(), config_.discovery_request_period,
                       config_.discovery_request_period, [this] {
                         if (requests_sent_ >= config_.max_discovery_requests ||
                             !registries_.empty()) {
                           request_timer_.stop();
                           return;
                         }
                         send_discovery_request();
                       });
}

void JiniManager::send_discovery_request() {
  ++requests_sent_;
  Message m;
  m.src = id();
  m.type = msg::kDiscoveryRequest;
  m.klass = MessageClass::kDiscovery;
  m.payload = DiscoveryRequest{id()};
  network().multicast(m, config_.multicast_redundancy);
}

std::optional<std::vector<net::MessageType>> JiniManager::multicast_interests()
    const {
  // Registry announcements only; discovery requests are the other
  // direction and everything else arrives unicast.
  return std::vector<net::MessageType>{msg::kAnnounce};
}

void JiniManager::on_message(const Message& m) {
  if (m.type == msg::kAnnounce) {
    registry_heard(m.as<Announce>().registry);
  } else if (m.type == msg::kDiscoveryResponse) {
    registry_heard(m.as<DiscoveryResponse>().registry);
  } else if (m.type == msg::kRegisterResponse) {
    handle_register_response(m);
  } else if (m.type == msg::kRenewRegistrationResponse) {
    handle_renew_response(m);
  }
}

void JiniManager::registry_heard(NodeId registry) {
  auto [entry, inserted] = registries_.try_emplace(registry);
  RegistryState& state = *entry;
  state.last_heard = now();
  simulator().reschedule_in(state.silence_timer, config_.announce_timeout,
                            [this, registry] {
                              SDCM_PROFILE_SITE(simulator(),
                                                "timer.jini.registry_silent");
                              purge_registry(registry, reason::kSilent);
                            });

  if (inserted) {
    trace(sim::TraceCategory::kDiscovery, tag::kRegistryDiscovered,
          sim::TraceDetail{}.peer(registry));
    // Register everything with the newly discovered lookup service. If a
    // service changed while we were out of touch, this re-registration
    // carries the new version - PR1 in action.
    for (const auto& [service, sd] : services_) {
      register_service(registry, service);
    }
  }
}

void JiniManager::depart() {
  trace(sim::TraceCategory::kDiscovery, tag::kManagerDepart);
  while (!registries_.empty()) {
    purge_registry(registries_.first_key(), reason::kDepart);
  }
  request_timer_.stop();
  requests_sent_ = 0;
}

void JiniManager::purge_registry(NodeId registry, sim::Atom why) {
  RegistryState* state = registries_.find(registry);
  if (state == nullptr) return;
  if (state->silence_timer != sim::kInvalidEventId) {
    simulator().cancel(state->silence_timer);
  }
  for (auto& [service, per] : state->services) {
    if (per.renew_timer != sim::kInvalidEventId) {
      simulator().cancel(per.renew_timer);
    }
  }
  registries_.erase(registry);
  trace(sim::TraceCategory::kDiscovery, tag::kRegistryPurged,
        sim::TraceDetail{}.peer(registry).reason(why));
  // Rediscovery relies on the lookup service's periodic announcements.
}

void JiniManager::register_service(NodeId registry, ServiceId service) {
  const auto svc_it = services_.find(service);
  if (svc_it == services_.end()) return;
  Message m;
  m.src = id();
  m.dst = registry;
  m.type = msg::kRegister;
  m.klass = svc_it->second.version > 1 ? MessageClass::kUpdate
                                       : MessageClass::kDiscovery;
  m.bytes = 48 + discovery::wire_size(svc_it->second);
  m.payload = Register{id(), svc_it->second};
  m.span = trace(
      sim::TraceCategory::kUpdate, tag::kRegisterTx,
      sim::TraceDetail{}.peer(registry).version(svc_it->second.version));
  net::TcpConnection::open_and_send(
      network(), std::move(m), {},
      [this, registry] { purge_registry(registry, reason::kRegisterRex); },
      config_.tcp);
}

void JiniManager::handle_register_response(const Message& m) {
  const auto& resp = m.as<RegisterResponse>();
  RegistryState* state = registries_.find(m.src);
  if (state == nullptr || !resp.ok) return;
  auto& per = state->services[resp.service];
  per.registered = true;
  const auto renew_after = static_cast<sim::SimDuration>(
      static_cast<double>(resp.lease) * config_.renew_fraction);
  const NodeId registry = m.src;
  const ServiceId service = resp.service;
  simulator().reschedule_in(per.renew_timer, renew_after,
                            [this, registry, service] {
        SDCM_PROFILE_SITE(simulator(), "timer.jini.registration_renew");
        renew_registration(registry, service);
      });
}

void JiniManager::renew_registration(NodeId registry, ServiceId service) {
  if (registries_.find(registry) == nullptr) return;
  Message m;
  m.src = id();
  m.dst = registry;
  m.type = msg::kRenewRegistration;
  m.klass = MessageClass::kControl;
  m.payload = RenewRegistration{id(), service};
  net::TcpConnection::open_and_send(
      network(), std::move(m), {},
      [this, registry] { purge_registry(registry, reason::kRenewRex); },
      config_.tcp);
}

void JiniManager::handle_renew_response(const Message& m) {
  const auto& resp = m.as<RenewRegistrationResponse>();
  RegistryState* state = registries_.find(m.src);
  if (state == nullptr) return;
  const NodeId registry = m.src;
  const ServiceId service = resp.service;
  if (resp.ok) {
    auto& per = state->services[service];
    const auto renew_after = static_cast<sim::SimDuration>(
        static_cast<double>(config_.registration_lease) *
        config_.renew_fraction);
    simulator().reschedule_in(per.renew_timer, renew_after,
                              [this, registry, service] {
          SDCM_PROFILE_SITE(simulator(), "timer.jini.registration_renew");
          renew_registration(registry, service);
        });
  } else {
    // Registration expired at the lookup service: re-register with the
    // current description (PR1 when the version moved meanwhile).
    trace(sim::TraceCategory::kLease, tag::kRenewLapsed,
          sim::TraceDetail{}.peer(registry));
    SDCM_OBS_ONLY(simulator().obs().counter("recovery.jini.pr1").inc());
    register_service(registry, service);
  }
}

void JiniManager::change_service(ServiceId service) {
  change_service(service, {});
}

void JiniManager::change_service(ServiceId service,
                                 const discovery::AttributeList& updates) {
  const auto it = services_.find(service);
  if (it == services_.end()) throw std::out_of_range("unknown service");
  for (const auto& [key, value] : updates) {
    it->second.attributes[key] = value;
  }
  ++it->second.version;
  const sim::SpanId change_span =
      trace(sim::TraceCategory::kUpdate, tag::kServiceChanged,
            sim::TraceDetail{}.service(service).version(it->second.version));
  // The re-registrations (and through them each registry's RemoteEvent
  // fan-out) descend from this change record.
  sim::SpanScope change_scope(simulator().trace(), change_span);
  if (observer_ != nullptr) {
    observer_->service_changed(it->second.version, now());
  }
  // Propagate by re-registering the changed description at every known
  // lookup service; each turns it into RemoteEvents for subscribed Users.
  for (const auto& [registry, state] : registries_) {
    register_service(registry, service);
  }
}

}  // namespace sdcm::jini
