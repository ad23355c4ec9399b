#include "sdcm/jini/user.hpp"

#include <utility>

#include "sdcm/net/tcp.hpp"
#include "sdcm/obs/profile_site.hpp"

namespace sdcm::jini {

using discovery::ServiceDescription;
using net::Message;
using net::MessageClass;

JiniUser::JiniUser(sim::Simulator& simulator, net::Network& network, NodeId id,
                   Template requirement, JiniConfig config,
                   discovery::ConsistencyObserver* observer)
    : Node(simulator, network, id, "jini-user"),
      requirement_(std::move(requirement)),
      config_(config),
      observer_(observer) {
  if (observer_ != nullptr) observer_->track_user(id);
}

void JiniUser::start() {
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
  if (config_.poll_period > 0) {
    // CM2: periodic lookup against every known lookup service.
    SDCM_PROFILE_TIMER(poll_timer_, "timer.jini.poll");
    poll_timer_.start(simulator(), config_.poll_period, config_.poll_period,
                      [this] {
                        for (const auto& [registry, state] : registries_) {
                          send_lookup(registry);
                        }
                      });
  }
}

void JiniUser::send_discovery_request() {
  ++requests_sent_;
  Message m;
  m.src = id();
  m.type = msg::kDiscoveryRequest;
  m.klass = MessageClass::kDiscovery;
  m.payload = DiscoveryRequest{id()};
  network().multicast(m, config_.multicast_redundancy);
}

std::optional<std::vector<net::MessageType>> JiniUser::multicast_interests()
    const {
  return std::vector<net::MessageType>{msg::kAnnounce};
}

void JiniUser::on_message(const Message& m) {
  if (m.type == msg::kAnnounce) {
    registry_heard(m.as<Announce>().registry);
  } else if (m.type == msg::kDiscoveryResponse) {
    registry_heard(m.as<DiscoveryResponse>().registry);
  } else if (m.type == msg::kEventRegisterResponse) {
    handle_event_response(m);
  } else if (m.type == msg::kRenewEventResponse) {
    handle_renew_event_response(m);
  } else if (m.type == msg::kLookupResponse) {
    handle_lookup_response(m);
  } else if (m.type == msg::kRemoteEvent) {
    handle_remote_event(m);
  }
}

void JiniUser::registry_heard(NodeId registry) {
  auto [entry, inserted] = registries_.try_emplace(registry);
  RegistryState& state = *entry;
  simulator().reschedule_in(state.silence_timer, config_.announce_timeout,
                            [this, registry] {
                              SDCM_PROFILE_SITE(simulator(),
                                                "timer.jini.registry_silent");
                              purge_registry(registry, reason::kSilent);
                            });

  if (inserted) {
    trace(sim::TraceCategory::kDiscovery, tag::kRegistryDiscovered,
          sim::TraceDetail{}.peer(registry));
    // Notification request first, then always a lookup (PR2). The lookup
    // is sent only once the event registration is confirmed: "Jini
    // overcomes this problem by forcing Users to always send queries
    // after the User requests for service notification" (Section 6.2) -
    // the ordering guarantees that anything the lookup misses is covered
    // by a future event.
    register_event(registry);
  }
}

void JiniUser::depart() {
  trace(sim::TraceCategory::kDiscovery, tag::kUserDepart);
  while (!registries_.empty()) {
    purge_registry(registries_.first_key(), reason::kDepart);
  }
  request_timer_.stop();
  poll_timer_.stop();
  requests_sent_ = 0;
}

void JiniUser::purge_registry(NodeId registry, sim::Atom why) {
  RegistryState* state = registries_.find(registry);
  if (state == nullptr) return;
  if (state->silence_timer != sim::kInvalidEventId) {
    simulator().cancel(state->silence_timer);
  }
  if (state->renew_timer != sim::kInvalidEventId) {
    simulator().cancel(state->renew_timer);
  }
  registries_.erase(registry);
  trace(sim::TraceCategory::kDiscovery, tag::kRegistryPurged,
        sim::TraceDetail{}.peer(registry).reason(why));
  // The cached service description is kept: Jini has no PR5.
}

void JiniUser::register_event(NodeId registry) {
  Message m;
  m.src = id();
  m.dst = registry;
  m.type = msg::kEventRegister;
  m.klass = MessageClass::kControl;
  m.payload = EventRegister{id(), requirement_};
  net::TcpConnection::open_and_send(
      network(), std::move(m), {},
      [this, registry] {
        purge_registry(registry, reason::kEventRegisterRex);
      },
      config_.tcp);
}

void JiniUser::send_lookup(NodeId registry) {
  Message m;
  m.src = id();
  m.dst = registry;
  m.type = msg::kLookup;
  m.klass = MessageClass::kControl;
  m.payload = Lookup{id(), requirement_};
  trace(sim::TraceCategory::kDiscovery, tag::kLookupTx,
        sim::TraceDetail{}.peer(registry));
  net::TcpConnection::open_and_send(
      network(), std::move(m), {},
      [this, registry] { purge_registry(registry, reason::kLookupRex); },
      config_.tcp);
}

void JiniUser::handle_event_response(const Message& m) {
  const auto& resp = m.as<EventRegisterResponse>();
  RegistryState* state = registries_.find(m.src);
  if (state == nullptr || !resp.ok) return;
  const bool first_confirmation = !state->event_registered;
  state->event_registered = true;
  if (first_confirmation) send_lookup(m.src);
  const auto renew_after = static_cast<sim::SimDuration>(
      static_cast<double>(resp.lease) * config_.renew_fraction);
  const NodeId registry = m.src;
  simulator().reschedule_in(state->renew_timer, renew_after,
                            [this, registry] {
                              SDCM_PROFILE_SITE(simulator(),
                                                "timer.jini.event_renew");
                              renew_event(registry);
                            });
}

void JiniUser::renew_event(NodeId registry) {
  if (registries_.find(registry) == nullptr) return;
  Message m;
  m.src = id();
  m.dst = registry;
  m.type = msg::kRenewEvent;
  m.klass = MessageClass::kControl;
  m.payload = RenewEvent{id()};
  net::TcpConnection::open_and_send(
      network(), std::move(m), {},
      [this, registry] { purge_registry(registry, reason::kRenewEventRex); },
      config_.tcp);
}

void JiniUser::handle_renew_event_response(const Message& m) {
  const auto& resp = m.as<RenewEventResponse>();
  RegistryState* state = registries_.find(m.src);
  if (state == nullptr) return;
  const NodeId registry = m.src;
  if (resp.ok) {
    const auto renew_after = static_cast<sim::SimDuration>(
        static_cast<double>(config_.subscription_lease) * config_.renew_fraction);
    simulator().reschedule_in(state->renew_timer, renew_after,
                              [this, registry] {
                                SDCM_PROFILE_SITE(simulator(),
                                                  "timer.jini.event_renew");
                                renew_event(registry);
                              });
  } else {
    // PR3, Jini-style: bare error; purge and redo discovery / event
    // registration / lookup. Announcements (every 120 s) bring the
    // registry back quickly, and the lookup then recovers the state.
    trace(sim::TraceCategory::kSubscription, tag::kEventLapsed,
          sim::TraceDetail{}.peer(registry));
    purge_registry(registry, reason::kEventLapsed);
  }
}

void JiniUser::handle_lookup_response(const Message& m) {
  const auto& resp = m.as<LookupResponse>();
  for (const auto& sd : resp.matches) store(sd);
}

void JiniUser::handle_remote_event(const Message& m) {
  const auto& event = m.as<RemoteEvent>();
  trace(sim::TraceCategory::kUpdate, tag::kEventRx,
        sim::TraceDetail{}.version(event.sd.version));
  store(event.sd);
}

void JiniUser::store(const ServiceDescription& sd) {
  if (!requirement_.matches(sd)) return;
  if (sd_.has_value() && sd_->version >= sd.version) return;
  sd_ = sd;
  trace(sim::TraceCategory::kUpdate, tag::kDescriptionStored,
        sim::TraceDetail{}.version(sd.version));
  if (observer_ != nullptr) {
    observer_->user_version(id(), sd.version, now());
    observer_->user_reached(id(), sd.version, now());
  }
}

}  // namespace sdcm::jini
