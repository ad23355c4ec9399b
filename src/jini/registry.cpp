#include "sdcm/jini/registry.hpp"

#include <cassert>

#include "sdcm/discovery/observer.hpp"
#include "sdcm/net/tcp.hpp"
#include "sdcm/obs/profile_site.hpp"

namespace sdcm::jini {

using discovery::ServiceDescription;
using net::Message;
using net::MessageClass;

JiniRegistry::JiniRegistry(sim::Simulator& simulator, net::Network& network,
                           NodeId id, JiniConfig config,
                           discovery::ConsistencyObserver* observer)
    : Node(simulator, network, id, "jini-registry"),
      config_(config),
      observer_(observer) {}

void JiniRegistry::start() {
  announce();
  SDCM_PROFILE_TIMER(announce_timer_, "timer.jini.announce");
  announce_timer_.start(simulator(), config_.announce_period,
                        config_.announce_period, [this] { announce(); });
}

void JiniRegistry::announce_now() { announce(); }

void JiniRegistry::announce() {
  Message m;
  m.src = id();
  m.type = msg::kAnnounce;
  m.klass = MessageClass::kDiscovery;
  m.payload = Announce{id()};
  network().multicast(m, config_.multicast_redundancy);
  trace(sim::TraceCategory::kDiscovery, tag::kAnnounce);
}

std::optional<std::vector<net::MessageType>>
JiniRegistry::multicast_interests() const {
  // Unicast discovery requests exist too, but the multicast path is the
  // cold-start group discovery.
  return std::vector<net::MessageType>{msg::kDiscoveryRequest};
}

void JiniRegistry::on_message(const Message& m) {
  if (m.type == msg::kDiscoveryRequest) {
    handle_discovery_request(m);
  } else if (m.type == msg::kRegister) {
    handle_register(m);
  } else if (m.type == msg::kRenewRegistration) {
    handle_renew_registration(m);
  } else if (m.type == msg::kLookup) {
    handle_lookup(m);
  } else if (m.type == msg::kEventRegister) {
    handle_event_register(m);
  } else if (m.type == msg::kRenewEvent) {
    handle_renew_event(m);
  }
}

void JiniRegistry::handle_discovery_request(const Message& m) {
  const auto& req = m.as<DiscoveryRequest>();
  Message reply;
  reply.src = id();
  reply.dst = req.node;
  reply.type = msg::kDiscoveryResponse;
  reply.klass = MessageClass::kDiscovery;
  reply.payload = DiscoveryResponse{id()};
  net::TcpConnection::open_and_send(network(), std::move(reply), {}, {},
                                    config_.tcp);
}

void JiniRegistry::handle_register(const Message& m) {
  const auto& reg = m.as<Register>();
  assert(m.conn != nullptr);

  auto [it, inserted] = registrations_.try_emplace(reg.sd.id);
  Registration& entry = it->second;
  const bool changed = inserted || entry.sd.version != reg.sd.version;
  entry.sd = reg.sd;
  const ServiceId service = reg.sd.id;
  entry.grant(simulator(), config_.registration_lease,
              [this, service] { purge_registration(service); });
  const sim::SpanId stored =
      trace(sim::TraceCategory::kDiscovery, tag::kRegistered,
            sim::TraceDetail{}
                .service(service)
                .version(reg.sd.version)
                .reason(inserted ? reason::kNew : reason::kRenewal));
  // The response and the RemoteEvent fan-out both descend from the
  // stored registration.
  sim::SpanScope scope(simulator().trace(), stored);

  Message reply;
  reply.src = id();
  reply.dst = reg.manager;
  reply.type = msg::kRegisterResponse;
  // The ack of an update-carrying registration is part of the update
  // transaction (the "+2" in the paper's N+2 message count).
  reply.klass = reg.sd.version > 1 ? MessageClass::kUpdate
                                   : MessageClass::kDiscovery;
  reply.payload =
      RegisterResponse{service, true, config_.registration_lease};
  m.conn->send(std::move(reply));

  // PR1: notify matching event registrations of the new / changed
  // registration. Future registrations only - which this naturally is.
  if (changed) fire_events(entry.sd);
}

void JiniRegistry::fire_events(const ServiceDescription& sd) {
  if (!config_.enable_notification) return;  // CM2-only study
  for (const auto& [user, ev] : events_) {
    if (!ev.tmpl.matches(sd)) continue;
    Message event;
    event.src = id();
    event.dst = user;
    event.type = msg::kRemoteEvent;
    event.klass =
        sd.version > 1 ? MessageClass::kUpdate : MessageClass::kDiscovery;
    event.bytes = 48 + discovery::wire_size(sd);
    event.payload = RemoteEvent{sd};
    event.span = trace(sim::TraceCategory::kUpdate, tag::kEventTx,
                       sim::TraceDetail{}.peer(user).version(sd.version));
    if (observer_ != nullptr) {
      observer_->notification_sent(id(), user, sd.version, now());
    }
    // Best-effort delivery: a REX abandons this event (the event lease is
    // kept); recovery is left to PR1/PR2/PR3.
    net::TcpConnection::open_and_send(
        network(), std::move(event), {},
        [this, u = user] {
          trace(sim::TraceCategory::kUpdate, tag::kEventRex,
                sim::TraceDetail{}.peer(u));
        },
        config_.tcp);
  }
}

void JiniRegistry::handle_renew_registration(const Message& m) {
  const auto& renew = m.as<RenewRegistration>();
  assert(m.conn != nullptr);
  Message reply;
  reply.src = id();
  reply.dst = renew.manager;
  reply.type = msg::kRenewRegistrationResponse;
  reply.klass = MessageClass::kControl;

  const auto it = registrations_.find(renew.service);
  if (it != registrations_.end()) {
    const ServiceId service = renew.service;
    it->second.renew(simulator(),
                     [this, service] { purge_registration(service); });
    reply.payload = RenewRegistrationResponse{renew.service, true};
  } else {
    reply.payload = RenewRegistrationResponse{renew.service, false};
  }
  m.conn->send(std::move(reply));
}

void JiniRegistry::handle_lookup(const Message& m) {
  const auto& lookup = m.as<Lookup>();
  assert(m.conn != nullptr);
  LookupResponse result;
  bool carries_update = false;
  for (const auto& [service, entry] : registrations_) {
    if (lookup.tmpl.matches(entry.sd)) {
      result.matches.push_back(entry.sd);
      carries_update = carries_update || entry.sd.version > 1;
    }
  }
  Message reply;
  reply.src = id();
  reply.dst = lookup.user;
  reply.type = msg::kLookupResponse;
  reply.klass =
      carries_update ? MessageClass::kUpdate : MessageClass::kDiscovery;
  reply.bytes = 48;
  for (const auto& match : result.matches) {
    reply.bytes += discovery::wire_size(match);
  }
  reply.payload = std::move(result);
  m.conn->send(std::move(reply));
}

void JiniRegistry::handle_event_register(const Message& m) {
  const auto& req = m.as<EventRegister>();
  assert(m.conn != nullptr);

  auto& entry = events_[req.user];
  entry.tmpl = req.tmpl;
  const NodeId user = req.user;
  entry.grant(simulator(), config_.subscription_lease,
              [this, user] { purge_event(user); });
  if (observer_ != nullptr) {
    observer_->lease_granted(id(), user, entry.lease.expires_at(), now());
  }
  trace(sim::TraceCategory::kSubscription, tag::kEventRegistered,
        sim::TraceDetail{}.peer(user));
  // NB: no notification about already-registered matching services - the
  // Jini anomaly the paper contrasts FRODO's PR1 against.

  Message reply;
  reply.src = id();
  reply.dst = req.user;
  reply.type = msg::kEventRegisterResponse;
  reply.klass = MessageClass::kControl;
  reply.payload = EventRegisterResponse{true, config_.subscription_lease};
  m.conn->send(std::move(reply));
}

void JiniRegistry::handle_renew_event(const Message& m) {
  const auto& renew = m.as<RenewEvent>();
  assert(m.conn != nullptr);
  Message reply;
  reply.src = id();
  reply.dst = renew.user;
  reply.type = msg::kRenewEventResponse;
  reply.klass = MessageClass::kControl;

  if (EventRegistration* ev = events_.find(renew.user)) {
    const NodeId user = renew.user;
    ev->renew(simulator(), [this, user] { purge_event(user); });
    if (observer_ != nullptr) {
      observer_->lease_granted(id(), user, ev->lease.expires_at(), now());
    }
    reply.payload = RenewEventResponse{true};
  } else {
    // PR3 as Jini implements it: a bare error; the User must redo registry
    // discovery, event registration and lookup.
    trace(sim::TraceCategory::kSubscription, tag::kRenewEventUnknown,
          sim::TraceDetail{}.peer(renew.user));
    reply.payload = RenewEventResponse{false};
  }
  m.conn->send(std::move(reply));
}

void JiniRegistry::purge_registration(ServiceId service) {
  if (registrations_.erase(service) > 0) {
    trace(sim::TraceCategory::kLease, tag::kRegistrationPurged,
          sim::TraceDetail{}.service(service));
  }
}

void JiniRegistry::purge_event(NodeId user) {
  if (events_.erase(user)) {
    if (observer_ != nullptr) observer_->lease_dropped(id(), user, now());
    trace(sim::TraceCategory::kLease, tag::kEventPurged,
          sim::TraceDetail{}.peer(user));
  }
}

}  // namespace sdcm::jini
