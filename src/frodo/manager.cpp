#include "sdcm/frodo/manager.hpp"

#include <stdexcept>
#include <utility>

#include "sdcm/obs/profile_site.hpp"

namespace sdcm::frodo {

using discovery::ServiceDescription;
using net::Message;
using net::MessageClass;

FrodoManager::FrodoManager(sim::Simulator& simulator, net::Network& network,
                           NodeId id, DeviceClass device_class,
                           FrodoConfig config,
                           discovery::ConsistencyObserver* observer)
    : FrodoClient(simulator, network, id, "frodo-manager", device_class,
                  config),
      observer_(observer) {}

void FrodoManager::add_service(ServiceDescription sd, bool critical) {
  sd.manager = this->id();
  const ServiceId service = sd.id;
  ServiceState state;
  state.sd = std::move(sd);
  state.critical = critical;
  state.history[state.sd.version] = state.sd;
  services_.insert_or_assign(service, std::move(state));
}

const ServiceDescription& FrodoManager::service(ServiceId service) const {
  const auto it = services_.find(service);
  if (it == services_.end()) throw std::out_of_range("unknown service");
  return it->second.sd;
}

bool FrodoManager::is_registered(ServiceId service) const {
  const auto it = services_.find(service);
  return it != services_.end() && it->second.registered;
}

std::size_t FrodoManager::subscriber_count(ServiceId service) const {
  const auto it = subs_.find(service);
  return it == subs_.end() ? 0 : it->second.size();
}

bool FrodoManager::has_subscriber(ServiceId service, NodeId user) const {
  const auto it = subs_.find(service);
  return it != subs_.end() && it->second.contains(user);
}

bool FrodoManager::marked_inconsistent(ServiceId service, NodeId user) const {
  const auto it = subs_.find(service);
  if (it == subs_.end()) return false;
  const Subscription* sub = it->second.find(user);
  return sub != nullptr && sub->inconsistent_since != 0;
}

void FrodoManager::start() { start_client(); }

void FrodoManager::depart() {
  FrodoClient::depart();
  for (auto& [service, users] : subs_) {
    for (auto& [user, sub] : users) {
      sub.cancel(simulator());
      if (sub.pending_update != 0) channel().cancel(sub.pending_update);
      if (observer_ != nullptr) observer_->lease_dropped(id(), user, now());
    }
  }
  subs_.clear();
  trace(sim::TraceCategory::kDiscovery, tag::kManagerDepart);
}

void FrodoManager::on_central_discovered() {
  for (const auto& [service, state] : services_) register_service(service);
}

void FrodoManager::on_central_changed() {
  // New Central (Backup takeover): re-register so it holds the current
  // descriptions even if its synced snapshot lagged.
  for (auto& [service, state] : services_) {
    state.registered = false;
    register_service(service);
  }
}

void FrodoManager::on_central_lost() {
  for (auto& [service, state] : services_) {
    state.registered = false;
    if (state.renew_timer != sim::kInvalidEventId) {
      simulator().cancel(state.renew_timer);
      state.renew_timer = sim::kInvalidEventId;
    }
    if (state.pending_central_update != 0) {
      channel().cancel(state.pending_central_update);
      state.pending_central_update = 0;
    }
  }
}

void FrodoManager::register_service(ServiceId service) {
  if (!has_central()) return;
  auto& state = services_.at(service);
  const Token token = channel().allocate_token();
  Message m;
  m.src = id();
  m.dst = central();
  m.type = msg::kRegister;
  // A re-registration carrying a changed description is the PR1 update
  // path; the initial registration is discovery traffic.
  m.klass = state.sd.version > 1 ? MessageClass::kUpdate
                                 : MessageClass::kDiscovery;
  m.bytes = 48 + discovery::wire_size(state.sd);
  m.payload = Register{token, id(), device_class(), state.sd, state.critical};
  m.span = trace(sim::TraceCategory::kDiscovery, tag::kRegisterTx,
                 sim::TraceDetail{}.service(service).version(state.sd.version));
  channel().send(token, std::move(m), srn1_options(), /*on_acked=*/{},
                 /*on_failed=*/[this, service] {
                   auto& st = services_.at(service);
                   st.registered = false;
                   trace(sim::TraceCategory::kDiscovery,
                         tag::kRegisterFailed,
                         sim::TraceDetail{}.service(service));
                 });
}

void FrodoManager::handle_register_ack(const Message& m) {
  const auto& ack = m.as<RegisterAck>();
  if (!channel().acknowledge(ack.token)) return;
  central_evidence(m.src);
  const auto it = services_.find(ack.service);
  if (it == services_.end()) return;
  ServiceState& state = it->second;
  state.registered = true;
  state.central_stale = false;  // the registration carried the current SD
  const auto renew_after = static_cast<sim::SimDuration>(
      static_cast<double>(ack.lease) * config().renew_fraction);
  const ServiceId service = ack.service;
  simulator().reschedule_in(state.renew_timer, renew_after,
                            [this, service] {
                              SDCM_PROFILE_SITE(
                                  simulator(),
                                  "timer.frodo.registration_renew");
                              renew_registration(service);
                            });
}

void FrodoManager::renew_registration(ServiceId service) {
  if (!has_central()) return;
  auto& state = services_.at(service);
  state.renew_timer = sim::kInvalidEventId;
  const Token token = channel().allocate_token();
  Message m;
  m.src = id();
  m.dst = central();
  m.type = msg::kRenewRegistration;
  m.klass = MessageClass::kControl;
  m.payload = RenewRegistration{token, id(), service};
  channel().send(
      token, std::move(m), srn1_options(),
      /*on_acked=*/
      [this, service] {
        central_evidence(central());
        auto& st = services_.at(service);
        const auto renew_after = static_cast<sim::SimDuration>(
            static_cast<double>(config().registration_lease) *
            config().renew_fraction);
        st.renew_timer = simulator().schedule_in(
            renew_after, [this, service] {
              SDCM_PROFILE_SITE(simulator(),
                                "timer.frodo.registration_renew");
              renew_registration(service);
            });
        // The renewal proves the Central is reachable again: deliver the
        // update it missed.
        if (st.central_stale && st.pending_central_update == 0) {
          const sim::SpanId retry =
              trace(sim::TraceCategory::kUpdate, tag::kUpdateCentralRetry,
                    sim::TraceDetail{}.service(service));
          sim::SpanScope scope(simulator().trace(), retry);
          send_update_to_central(service);
        }
      },
      /*on_failed=*/
      [this, service] {
        // The Central is unreachable; retry until the silence timeout
        // purges it (announcing then resumes and PR1 re-registers).
        auto& st = services_.at(service);
        st.renew_timer = simulator().schedule_in(
            config().node_announce_period, [this, service] {
              SDCM_PROFILE_SITE(simulator(),
                                "timer.frodo.registration_renew");
              renew_registration(service);
            });
      });
}

void FrodoManager::handle_reregister_request(const Message& m) {
  const auto& req = m.as<ReregisterRequest>();
  if (req.token != 0) channel().acknowledge(req.token);
  central_evidence(m.src);
  if (services_.contains(req.service)) register_service(req.service);
}

void FrodoManager::change_service(ServiceId service) {
  change_service(service, {});
}

void FrodoManager::change_service(ServiceId service,
                                  const discovery::AttributeList& updates) {
  const auto it = services_.find(service);
  if (it == services_.end()) throw std::out_of_range("unknown service");
  ServiceState& state = it->second;
  for (const auto& [key, value] : updates) {
    state.sd.attributes[key] = value;
  }
  ++state.sd.version;
  state.history[state.sd.version] = state.sd;
  if (state.sd.version > 2) {
    state.previous_change_gap = now() - state.last_change;
  }
  state.last_change = now();
  const sim::SpanId change_span =
      trace(sim::TraceCategory::kUpdate, tag::kServiceChanged,
            sim::TraceDetail{}.service(service).version(state.sd.version));
  // Everything the change triggers - the Central update and the per-User
  // notifications - descends from this record, making the fan-out a tree.
  sim::SpanScope change_scope(simulator().trace(), change_span);
  if (observer_ != nullptr) {
    observer_->service_changed(state.sd.version, now());
  }

  // Propagate to the Central (both subscription modes register there).
  send_update_to_central(service);

  // 2-party: notify own subscribers directly. A new change resets the
  // notification process (SRN1 stop condition (e)).
  const auto subs_it = subs_.find(service);
  if (!config().enable_notification) return;  // CM2-only study
  if (subs_it != subs_.end()) {
    for (auto& [user, sub] : subs_it->second) {
      if (sub.pending_update != 0) {
        channel().cancel(sub.pending_update);
        sub.pending_update = 0;
      }
      sub.inconsistent_since = 0;
    }
    for (const auto& [user, sub] : subs_it->second) {
      send_update_to_user(service, user);
    }
  }
}

void FrodoManager::send_update_to_central(ServiceId service) {
  auto& state = services_.at(service);
  if (!has_central()) {
    // Rediscovery will re-register with the current version (PR1).
    state.central_stale = true;
    return;
  }
  if (state.pending_central_update != 0) {
    channel().cancel(state.pending_central_update);  // superseded change
  }
  const Token token = channel().allocate_token();
  state.pending_central_update = token;
  Message m;
  m.src = id();
  m.dst = central();
  m.type = msg::kServiceUpdate;
  m.klass = MessageClass::kUpdate;
  m.bytes = discovery::wire_size(state.sd);
  m.payload = ServiceUpdate{token, state.sd, state.critical};
  channel().send(
      token, std::move(m),
      state.critical ? src1_options() : srn1_options(),
      /*on_acked=*/
      [this, service] {
        auto& st = services_.at(service);
        st.pending_central_update = 0;
        st.central_stale = false;
        central_evidence(central());
      },
      /*on_failed=*/
      [this, service] {
        // Could not reach the Central. If it gets purged, rediscovery
        // re-registers the current version (PR1); if it stays known (its
        // announcements still arrive), the next successful renewal
        // triggers a resend.
        auto& st = services_.at(service);
        st.pending_central_update = 0;
        st.central_stale = true;
        trace(sim::TraceCategory::kUpdate, tag::kUpdateCentralFailed,
              sim::TraceDetail{}.service(service));
      });
}

void FrodoManager::send_update_to_user(ServiceId service, NodeId user) {
  auto& state = services_.at(service);
  auto& sub = subs_.at(service).at(user);
  const Token token = channel().allocate_token();
  sub.pending_update = token;
  const ServiceVersion version = state.sd.version;

  // Propagation mode (Section 4.2): data push, invalidation, or the
  // Alex-style adaptive choice based on how recently the service last
  // changed (a "hot" service keeps invalidating; a settled one gets the
  // data pushed).
  bool invalidate = false;
  switch (config().propagation) {
    case UpdatePropagation::kData:
      break;
    case UpdatePropagation::kInvalidation:
      invalidate = true;
      break;
    case UpdatePropagation::kAdaptive:
      invalidate = state.previous_change_gap >= 0 &&
                   state.previous_change_gap <
                       config().adaptive_hot_threshold;
      break;
  }

  Message m;
  m.src = id();
  m.dst = user;
  m.type = msg::kServiceUpdate;
  m.klass = MessageClass::kUpdate;
  if (invalidate) {
    discovery::ServiceDescription stub;
    stub.id = state.sd.id;
    stub.manager = state.sd.manager;
    stub.version = state.sd.version;
    m.bytes = 64;
    m.payload = ServiceUpdate{token, std::move(stub), state.critical, true};
  } else {
    m.bytes = discovery::wire_size(state.sd);
    m.payload = ServiceUpdate{token, state.sd, state.critical, false};
  }
  sim::TraceDetail detail = sim::TraceDetail{}.peer(user).version(version);
  if (invalidate) detail.reason(reason::kInvalidation);
  m.span = trace(sim::TraceCategory::kUpdate, tag::kUpdateTx, detail);
  if (observer_ != nullptr) {
    observer_->notification_sent(id(), user, version, now());
  }
  channel().send(
      token, std::move(m),
      state.critical ? src1_options() : srn1_options(),
      /*on_acked=*/
      [this, service, user] {
        const auto it = subs_.find(service);
        if (it == subs_.end()) return;
        Subscription* entry = it->second.find(user);
        if (entry == nullptr) return;
        entry->pending_update = 0;
        entry->inconsistent_since = 0;
      },
      /*on_failed=*/
      [this, service, user, version] {
        const auto it = subs_.find(service);
        if (it == subs_.end()) return;
        Subscription* entry = it->second.find(user);
        if (entry == nullptr) return;
        entry->pending_update = 0;
        if (config().enable_srn2) {
          // SRN2: remember the inconsistent User; retry when its next
          // subscription renewal proves it is reachable again.
          entry->inconsistent_since = version;
          trace(sim::TraceCategory::kUpdate, tag::kSrn2Marked,
                sim::TraceDetail{}.peer(user));
        }
      });
}

std::optional<std::vector<net::MessageType>> FrodoManager::multicast_interests()
    const {
  // Central tracking plus the Users' registry-less multicast search.
  return std::vector<net::MessageType>{msg::kCentralAnnounce,
                                       msg::kMulticastSearch};
}

void FrodoManager::on_message(const Message& m) {
  if (handle_central_message(m)) return;
  if (m.type == msg::kRegisterAck) {
    handle_register_ack(m);
  } else if (m.type == msg::kUpdateAck) {
    central_evidence(m.src);
    channel().acknowledge(m.as<Ack>().token);
  } else if (m.type == msg::kAck || m.type == msg::kClientUpdateAck) {
    channel().acknowledge(m.as<Ack>().token);
  } else if (m.type == msg::kReregisterRequest) {
    handle_reregister_request(m);
  } else if (m.type == msg::kMulticastSearch) {
    const auto& search = m.as<MulticastSearch>();
    handle_search(m, search.matching, search.user);
  } else if (m.type == msg::kServiceSearch) {
    const auto& search = m.as<ServiceSearch>();
    handle_search(m, search.matching, search.user);
  } else if (m.type == msg::kSubscriptionRequest) {
    handle_subscription_request(m);
  } else if (m.type == msg::kSubscriptionRenew) {
    handle_subscription_renew(m);
  } else if (m.type == msg::kUpdateRequest) {
    handle_update_request(m);
  }
}

void FrodoManager::handle_search(const Message& m, const Matching& matching,
                                 NodeId user) {
  (void)m;
  for (const auto& [service, state] : services_) {
    if (!matching.matches(state.sd)) continue;
    Message reply;
    reply.src = id();
    reply.dst = user;
    reply.type = msg::kServiceFound;
    reply.klass = state.sd.version > 1 ? MessageClass::kUpdate
                                       : MessageClass::kDiscovery;
    reply.payload = ServiceFound{true, state.sd, device_class()};
    network().send(reply);
  }
}

void FrodoManager::arm_subscription_expiry(ServiceId service, NodeId user) {
  subs_.at(service).at(user).arm(simulator(), [this, service, user] {
    purge_subscriber(service, user, reason::kExpired);
  });
}

void FrodoManager::handle_subscription_request(const Message& m) {
  if (!uses_two_party_subscription(device_class())) return;
  const auto& req = m.as<SubscriptionRequest>();
  const auto svc_it = services_.find(req.service);
  if (svc_it == services_.end()) return;

  auto& sub = subs_[req.service][req.user];
  sub.lease = discovery::Lease{now(), config().subscription_lease};
  sub.inconsistent_since = 0;
  arm_subscription_expiry(req.service, req.user);
  if (observer_ != nullptr) {
    observer_->lease_granted(id(), req.user, sub.lease.expires_at(), now());
  }
  trace(sim::TraceCategory::kSubscription, tag::kSubscribed,
        sim::TraceDetail{}.peer(req.user));

  Message ack;
  ack.src = id();
  ack.dst = req.user;
  ack.type = msg::kSubscribeAck;
  SubscribeAck payload{req.token, req.service, config().subscription_lease,
                       std::nullopt};
  if (svc_it->second.sd.version > req.known_version) {
    // PR4 payload: the resubscription response carries the updated SD.
    payload.sd = svc_it->second.sd;
    ack.klass = svc_it->second.sd.version > 1 ? MessageClass::kUpdate
                                              : MessageClass::kDiscovery;
  } else {
    ack.klass = MessageClass::kControl;
  }
  ack.payload = std::move(payload);
  network().send(ack);
}

void FrodoManager::handle_subscription_renew(const Message& m) {
  if (!uses_two_party_subscription(device_class())) return;
  const auto& renew = m.as<SubscriptionRenew>();
  const auto subs_it = subs_.find(renew.service);
  const bool known = subs_it != subs_.end() &&
                     subs_it->second.contains(renew.user);
  if (!known) {
    if (!config().enable_pr4) return;
    // PR4: request the purged User to resubscribe.
    Message req;
    req.src = id();
    req.dst = renew.user;
    req.type = msg::kResubscribeRequest;
    req.klass = MessageClass::kControl;
    req.payload = ResubscribeRequest{renew.token, renew.service};
    req.span = trace(sim::TraceCategory::kSubscription,
                     tag::kResubscribeRequest,
                     sim::TraceDetail{}.peer(renew.user));
    network().send(req);
    return;
  }

  auto& sub = subs_it->second.at(renew.user);
  sub.lease.renew(now());
  arm_subscription_expiry(renew.service, renew.user);
  if (observer_ != nullptr) {
    observer_->lease_granted(id(), renew.user, sub.lease.expires_at(), now());
  }
  // Renewals are not acknowledged (Figure 1).

  // SRN2: the renewal proves the User is reachable again - retry the
  // failed update notification.
  const auto& state = services_.at(renew.service);
  if (config().enable_srn2 && sub.inconsistent_since != 0 &&
      sub.inconsistent_since == state.sd.version && sub.pending_update == 0) {
    const sim::SpanId retry =
        trace(sim::TraceCategory::kUpdate, tag::kSrn2Retry,
              sim::TraceDetail{}.peer(renew.user));
    sim::SpanScope scope(simulator().trace(), retry);
    send_update_to_user(renew.service, renew.user);
  }
}

void FrodoManager::handle_update_request(const Message& m) {
  // SRC2: serve the retained history of missed versions.
  const auto& req = m.as<UpdateRequest>();
  const auto it = services_.find(req.service);
  if (it == services_.end()) return;
  UpdateHistory history;
  history.service = req.service;
  for (const auto& [version, sd] : it->second.history) {
    if (version >= req.from_version) history.versions.push_back(sd);
  }
  if (history.versions.empty()) return;
  Message reply;
  reply.src = id();
  reply.dst = req.user;
  reply.type = msg::kUpdateHistory;
  reply.klass = MessageClass::kUpdate;
  reply.bytes = 48;
  for (const auto& version : history.versions) {
    reply.bytes += discovery::wire_size(version);
  }
  reply.payload = std::move(history);
  network().send(reply);
}

void FrodoManager::purge_subscriber(ServiceId service, NodeId user,
                                    sim::Atom why) {
  const auto it = subs_.find(service);
  if (it == subs_.end()) return;
  Subscription* sub = it->second.find(user);
  if (sub == nullptr) return;
  sub->cancel(simulator());
  if (sub->pending_update != 0) {
    channel().cancel(sub->pending_update);
  }
  it->second.erase(user);
  if (observer_ != nullptr) observer_->lease_dropped(id(), user, now());
  trace(sim::TraceCategory::kSubscription, tag::kSubscriberPurged,
        sim::TraceDetail{}.peer(user).reason(why));
}

}  // namespace sdcm::frodo
