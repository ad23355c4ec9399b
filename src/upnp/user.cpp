#include "sdcm/upnp/user.hpp"

#include <utility>

#include "sdcm/net/tcp.hpp"
#include "sdcm/obs/profile_site.hpp"

namespace sdcm::upnp {

using net::Message;
using net::MessageClass;

UpnpUser::UpnpUser(sim::Simulator& simulator, net::Network& network, NodeId id,
                   Requirement requirement, UpnpConfig config,
                   discovery::ConsistencyObserver* observer)
    : Node(simulator, network, id, "upnp-user"),
      requirement_(std::move(requirement)),
      config_(config),
      observer_(observer) {
  if (observer_ != nullptr) observer_->track_user(id);
}

void UpnpUser::start() {
  send_msearch();
  SDCM_PROFILE_TIMER(search_timer_, "timer.upnp.search");
  search_timer_.start(simulator(), config_.search_period,
                      config_.search_period, [this] {
                        if (!has_manager()) send_msearch();
                      });
  if (config_.poll_period > 0) {
    // CM2: persistent polling - re-fetch the description on a fixed
    // period whenever a Manager is cached, regardless of past REXes.
    SDCM_PROFILE_TIMER(poll_timer_, "timer.upnp.poll");
    poll_timer_.start(simulator(), config_.poll_period, config_.poll_period,
                      [this] {
                        if (has_manager() && !fetch_in_flight_) {
                          fetch_description();
                        }
                      });
  }
}

void UpnpUser::depart() {
  trace(sim::TraceCategory::kDiscovery, tag::kUserDepart);
  manager_ = sim::kNoNode;
  service_ = 0;
  sd_.reset();
  subscribed_ = false;
  fetch_in_flight_ = false;
  fetch_pending_ = false;
  subscribe_in_flight_ = false;
  for (auto* timer : {&cache_expiry_, &renew_timer_, &sub_expiry_,
                      &retry_timer_}) {
    if (*timer != sim::kInvalidEventId) {
      simulator().cancel(*timer);
      *timer = sim::kInvalidEventId;
    }
  }
  search_timer_.stop();
  poll_timer_.stop();
}

void UpnpUser::send_msearch() {
  Message m;
  m.src = id();
  m.type = msg::kMSearch;
  m.klass = MessageClass::kDiscovery;
  m.payload = MSearch{id(), requirement_.device_type, requirement_.service_type};
  network().multicast(m, config_.multicast_redundancy);
  trace(sim::TraceCategory::kDiscovery, tag::kMSearchTx);
}

std::optional<std::vector<net::MessageType>> UpnpUser::multicast_interests()
    const {
  return std::vector<net::MessageType>{msg::kAlive, msg::kByeBye};
}

void UpnpUser::on_message(const Message& m) {
  if (m.type == msg::kAlive) {
    const auto& alive = m.as<Alive>();
    handle_presence(alive.manager, alive.service, alive.device_type,
                    alive.service_type);
  } else if (m.type == msg::kSearchResponse) {
    const auto& resp = m.as<SearchResponse>();
    handle_presence(resp.manager, resp.service, resp.device_type,
                    resp.service_type);
  } else if (m.type == msg::kByeBye) {
    handle_byebye(m);
  } else if (m.type == msg::kDescription) {
    handle_description(m);
  } else if (m.type == msg::kSubscribeResponse) {
    handle_subscribe_response(m);
  } else if (m.type == msg::kRenewResponse) {
    handle_renew_response(m);
  } else if (m.type == msg::kNotify) {
    handle_notify(m);
  }
}

void UpnpUser::handle_presence(NodeId manager, discovery::ServiceId service,
                               const std::string& device_type,
                               const std::string& service_type) {
  if (!requirement_.matches(device_type, service_type)) return;
  if (manager_ == sim::kNoNode) {
    manager_ = manager;
    service_ = service;
    trace(sim::TraceCategory::kDiscovery, tag::kManagerDiscovered,
          sim::TraceDetail{}.peer(manager));
  } else if (manager != manager_) {
    return;  // single-manager scenario; ignore other providers
  }
  refresh_cache_lease();
  if ((!sd_.has_value() || fetch_pending_) && !fetch_in_flight_) {
    fetch_description();
  } else if (sd_.has_value() && !subscribed_ && !subscribe_in_flight_) {
    subscribe();
  }
}

void UpnpUser::fetch_description() {
  fetch_in_flight_ = true;
  fetch_pending_ = false;
  Message m;
  m.src = id();
  m.dst = manager_;
  m.type = msg::kGetDescription;
  // A re-fetch solicits the updated description and is part of the update
  // transaction; the very first fetch is discovery traffic (matching the
  // paper's 3N-per-update accounting for UPnP).
  m.klass = sd_.has_value() ? MessageClass::kUpdate : MessageClass::kDiscovery;
  m.bytes = 64;
  m.payload = GetDescription{id(), service_};
  m.span = trace(sim::TraceCategory::kUpdate, tag::kGetTx);
  net::TcpConnection::open_and_send(
      network(), std::move(m), /*on_acked=*/{},
      /*on_rex=*/
      [this] {
        fetch_in_flight_ = false;
        fetch_pending_ = true;
        trace(sim::TraceCategory::kUpdate, tag::kGetRex);
        if (retry_timer_ == sim::kInvalidEventId && has_manager()) {
          retry_timer_ =
              simulator().schedule_in(config_.retry_period, [this] {
                SDCM_PROFILE_SITE(simulator(), "timer.upnp.fetch_retry");
                retry_timer_ = sim::kInvalidEventId;
                if (fetch_pending_ && has_manager() && !fetch_in_flight_) {
                  fetch_description();
                }
              });
        }
      },
      config_.tcp);
}

void UpnpUser::handle_description(const Message& m) {
  const auto& desc = m.as<Description>();
  fetch_in_flight_ = false;
  fetch_pending_ = false;
  if (m.src != manager_ || desc.sd.id != service_) return;
  sd_ = desc.sd;
  refresh_cache_lease();
  trace(sim::TraceCategory::kUpdate, tag::kDescriptionStored,
        sim::TraceDetail{}.version(desc.sd.version));
  if (observer_ != nullptr) {
    observer_->user_version(id(), desc.sd.version, now());
    observer_->user_reached(id(), desc.sd.version, now());
  }
  if (!subscribed_ && !subscribe_in_flight_) subscribe();
}

void UpnpUser::subscribe() {
  subscribe_in_flight_ = true;
  Message m;
  m.src = id();
  m.dst = manager_;
  m.type = msg::kSubscribe;
  m.klass = MessageClass::kControl;
  m.payload = Subscribe{id(), service_};
  trace(sim::TraceCategory::kSubscription, tag::kSubscribeTx);
  net::TcpConnection::open_and_send(
      network(), std::move(m), /*on_acked=*/{},
      /*on_rex=*/
      [this] {
        subscribe_in_flight_ = false;
        if (retry_timer_ == sim::kInvalidEventId && has_manager()) {
          retry_timer_ =
              simulator().schedule_in(config_.retry_period, [this] {
                SDCM_PROFILE_SITE(simulator(), "timer.upnp.subscribe_retry");
                retry_timer_ = sim::kInvalidEventId;
                if (has_manager() && !subscribed_ && !subscribe_in_flight_) {
                  subscribe();
                }
              });
        }
      },
      config_.tcp);
}

void UpnpUser::handle_subscribe_response(const Message& m) {
  const auto& resp = m.as<SubscribeResponse>();
  subscribe_in_flight_ = false;
  if (m.src != manager_ || resp.service != service_ || !resp.ok) return;
  refresh_cache_lease();
  subscribed_ = true;
  sub_lease_ = discovery::Lease{now(), resp.lease};
  trace(sim::TraceCategory::kSubscription, tag::kSubscribed);

  const auto renew_after = static_cast<sim::SimDuration>(
      static_cast<double>(resp.lease) * config_.renew_fraction);
  simulator().reschedule_in(renew_timer_, renew_after, [this] {
    SDCM_PROFILE_SITE(simulator(), "timer.upnp.lease_renew");
    renew_timer_ = sim::kInvalidEventId;
    renew();
  });

  simulator().reschedule_at(sub_expiry_, sub_lease_.expires_at(), [this] {
    SDCM_PROFILE_SITE(simulator(), "timer.upnp.sub_expiry");
    sub_expiry_ = sim::kInvalidEventId;
    subscribed_ = false;
    trace(sim::TraceCategory::kSubscription, tag::kSubscriptionExpired);
    if (has_manager() && !subscribe_in_flight_) subscribe();
  });
}

void UpnpUser::renew() {
  if (!subscribed_ || !has_manager()) return;
  Message m;
  m.src = id();
  m.dst = manager_;
  m.type = msg::kRenew;
  m.klass = MessageClass::kControl;
  m.payload = Renew{id(), service_};
  trace(sim::TraceCategory::kSubscription, tag::kRenewTx);
  net::TcpConnection::open_and_send(
      network(), std::move(m), /*on_acked=*/{},
      /*on_rex=*/
      [this] {
        // Keep trying while the local lease is alive; PR5 handles the rest.
        if (subscribed_ && renew_timer_ == sim::kInvalidEventId) {
          renew_timer_ = simulator().schedule_in(config_.retry_period, [this] {
            SDCM_PROFILE_SITE(simulator(), "timer.upnp.renew_retry");
            renew_timer_ = sim::kInvalidEventId;
            renew();
          });
        }
      },
      config_.tcp);
}

void UpnpUser::handle_renew_response(const Message& m) {
  const auto& resp = m.as<RenewResponse>();
  if (m.src != manager_ || resp.service != service_) return;
  refresh_cache_lease();
  if (resp.ok) {
    sub_lease_.renew(now());
    simulator().reschedule_at(sub_expiry_, sub_lease_.expires_at(), [this] {
      SDCM_PROFILE_SITE(simulator(), "timer.upnp.sub_expiry");
      sub_expiry_ = sim::kInvalidEventId;
      subscribed_ = false;
      if (has_manager() && !subscribe_in_flight_) subscribe();
    });
    const auto renew_after = static_cast<sim::SimDuration>(
        static_cast<double>(sub_lease_.duration) * config_.renew_fraction);
    simulator().reschedule_in(renew_timer_, renew_after, [this] {
      SDCM_PROFILE_SITE(simulator(), "timer.upnp.lease_renew");
      renew_timer_ = sim::kInvalidEventId;
      renew();
    });
  } else {
    // PR4: the Manager purged us; resubscribe. GENA resubscription does
    // not carry the current description, so a missed update stays missed
    // (the paper's Section 6.2 "never regains consistency" example).
    trace(sim::TraceCategory::kSubscription, tag::kRenewRejected);
    subscribed_ = false;
    if (renew_timer_ != sim::kInvalidEventId) {
      simulator().cancel(renew_timer_);
      renew_timer_ = sim::kInvalidEventId;
    }
    if (sub_expiry_ != sim::kInvalidEventId) {
      simulator().cancel(sub_expiry_);
      sub_expiry_ = sim::kInvalidEventId;
    }
    if (!subscribe_in_flight_) subscribe();
  }
}

void UpnpUser::handle_notify(const Message& m) {
  const auto& notify = m.as<Notify>();
  if (m.src != manager_ || notify.service != service_) return;
  refresh_cache_lease();
  const sim::SpanId rx_span =
      trace(sim::TraceCategory::kUpdate, tag::kNotifyRx,
            sim::TraceDetail{}.version(notify.version));
  // Invalidation only: fetch the changed description to become consistent.
  // The fetch descends from the received notification.
  sim::SpanScope scope(simulator().trace(), rx_span);
  if (!fetch_in_flight_ &&
      (!sd_.has_value() || notify.version > sd_->version)) {
    fetch_description();
  }
}

void UpnpUser::handle_byebye(const Message& m) {
  const auto& bye = m.as<ByeBye>();
  if (bye.manager != manager_) return;
  purge_manager(reason::kByeBye);
}

void UpnpUser::refresh_cache_lease() {
  simulator().reschedule_in(cache_expiry_, config_.registration_lease, [this] {
    SDCM_PROFILE_SITE(simulator(), "timer.upnp.cache_expiry");
    cache_expiry_ = sim::kInvalidEventId;
    if (config_.enable_pr5) purge_manager(reason::kCacheExpired);
  });
}

void UpnpUser::purge_manager(sim::Atom why) {
  trace(sim::TraceCategory::kDiscovery, tag::kManagerPurged,
        sim::TraceDetail{}.reason(why));
  manager_ = sim::kNoNode;
  service_ = 0;
  sd_.reset();
  subscribed_ = false;
  fetch_in_flight_ = false;
  fetch_pending_ = false;
  subscribe_in_flight_ = false;
  for (auto* timer : {&cache_expiry_, &renew_timer_, &sub_expiry_,
                      &retry_timer_}) {
    if (*timer != sim::kInvalidEventId) {
      simulator().cancel(*timer);
      *timer = sim::kInvalidEventId;
    }
  }
  // PR5: rediscover via multicast queries and announcement listening.
  send_msearch();
  SDCM_PROFILE_TIMER(search_timer_, "timer.upnp.search");
  search_timer_.start(simulator(), config_.search_period,
                      config_.search_period, [this] {
                        if (!has_manager()) send_msearch();
                      });
}

}  // namespace sdcm::upnp
