#include "sdcm/frodo/user.hpp"

#include <utility>

#include "sdcm/obs/profile_site.hpp"

namespace sdcm::frodo {

using discovery::ServiceDescription;
using net::Message;
using net::MessageClass;

namespace {

/// A device class as the class= atom of frodo.manager.discovered.
sim::Atom class_atom(DeviceClass c) {
  static const sim::Atom atoms[] = {
      sim::Atom::intern(to_string(DeviceClass::k3C)),
      sim::Atom::intern(to_string(DeviceClass::k3D)),
      sim::Atom::intern(to_string(DeviceClass::k300D))};
  return atoms[static_cast<std::size_t>(c)];
}

}  // namespace

FrodoUser::FrodoUser(sim::Simulator& simulator, net::Network& network,
                     NodeId id, DeviceClass device_class, Matching requirement,
                     FrodoConfig config,
                     discovery::ConsistencyObserver* observer)
    : FrodoClient(simulator, network, id, "frodo-user", device_class, config),
      requirement_(std::move(requirement)),
      observer_(observer) {}

void FrodoUser::start() {
  if (observer_ != nullptr) observer_->track_user(id());
  start_client();
  begin_search();
  if (config().poll_period > 0) {
    // CM2: periodic unicast query of the Central; the ServiceFound reply
    // carries the Central's current version of the description.
    SDCM_PROFILE_TIMER(poll_timer_, "timer.frodo.poll");
    poll_timer_.start(simulator(), config().poll_period,
                      config().poll_period, [this] {
                        if (!has_central() || !sd_.has_value()) return;
                        net::Message m;
                        m.src = id();
                        m.dst = central();
                        m.type = msg::kServiceSearch;
                        m.klass = net::MessageClass::kDiscovery;
                        m.payload = search_payload();
                        network().send(m);
                      });
  }
}

// --------------------------------------------------------------------
// Central tracking
// --------------------------------------------------------------------

void FrodoUser::on_central_discovered() {
  send_notification_request();
  if (!sd_.has_value()) {
    begin_search();
  } else if (!subscribed_ && !subscribe_in_flight_) {
    subscribe();
  }
}

void FrodoUser::on_central_changed() {
  // A Backup took over. Re-register the interest, and in 3-party mode
  // resubscribe: the subscription ack carries anything we missed.
  send_notification_request();
  if (sd_.has_value() && !two_party()) {
    subscribed_ = false;
    subscribe();
  }
}

void FrodoUser::on_central_lost() {
  if (!two_party()) {
    subscribed_ = false;
    if (renew_timer_ != sim::kInvalidEventId) {
      simulator().cancel(renew_timer_);
      renew_timer_ = sim::kInvalidEventId;
    }
  }
}

void FrodoUser::send_notification_request() {
  if (!has_central()) return;
  Message m;
  m.src = id();
  m.dst = central();
  m.type = msg::kNotificationRequest;
  m.klass = MessageClass::kControl;
  m.payload = NotificationRequest{
      id(), requirement_, sd_.has_value() ? sd_->version : 0};
  network().send(m);
}

// --------------------------------------------------------------------
// Discovery (search) cycle
// --------------------------------------------------------------------

void FrodoUser::begin_search() {
  if (searching_ || sd_.has_value()) return;
  searching_ = true;
  search_attempts_ = 0;
  search_attempt();
}

const net::Payload& FrodoUser::search_payload() {
  if (!search_payload_.has_value()) {
    search_payload_ = ServiceSearch{id(), requirement_};
  }
  return search_payload_;
}

void FrodoUser::search_attempt() {
  if (!searching_) return;
  if (has_central() && search_attempts_ < config().search_unicast_attempts) {
    ++search_attempts_;
    Message m;
    m.src = id();
    m.dst = central();
    m.type = msg::kServiceSearch;
    m.klass = MessageClass::kDiscovery;
    m.payload = search_payload();
    network().send(m);
    search_timer_ = simulator().schedule_in(
        config().search_response_timeout, [this] {
          SDCM_PROFILE_SITE(simulator(), "timer.frodo.search");
          search_attempt();
        });
  } else {
    // Registry unknown or not responding: multicast query (PR5's
    // fallback; also the bootstrap path before a Central is elected).
    Message m;
    m.src = id();
    m.type = msg::kMulticastSearch;
    m.klass = MessageClass::kDiscovery;
    if (!multicast_search_payload_.has_value()) {
      multicast_search_payload_ = MulticastSearch{id(), requirement_};
    }
    m.payload = multicast_search_payload_;
    network().multicast(m, 1);
    search_attempts_ = 0;
    search_timer_ = simulator().schedule_in(config().search_retry, [this] {
      SDCM_PROFILE_SITE(simulator(), "timer.frodo.search");
      search_attempt();
    });
  }
}

void FrodoUser::stop_search() {
  searching_ = false;
  if (search_timer_ != sim::kInvalidEventId) {
    simulator().cancel(search_timer_);
    search_timer_ = sim::kInvalidEventId;
  }
}

// --------------------------------------------------------------------
// Message handling
// --------------------------------------------------------------------

void FrodoUser::on_message(const Message& m) {
  if (handle_central_message(m)) return;

  if (m.type == msg::kServiceFound) {
    const auto& found = m.as<ServiceFound>();
    central_evidence(m.src);
    if (found.found && requirement_.matches(found.sd)) {
      if (!has_manager()) {
        adopt(found.sd, found.manager_class);
      } else if (found.sd.manager == manager_) {
        store_sd(found.sd, critical_);
      }
    }
  } else if (m.type == msg::kServiceNotification) {
    const auto& notify = m.as<ServiceNotification>();
    central_evidence(m.src);
    Message ack;
    ack.src = id();
    ack.dst = m.src;
    ack.type = msg::kNotificationAck;
    ack.klass = MessageClass::kControl;
    ack.payload = Ack{notify.token};
    network().send(ack);
    if (!requirement_.matches(notify.sd)) return;
    if (!has_manager()) {
      adopt(notify.sd, notify.manager_class);
    } else if (notify.sd.manager == manager_) {
      store_sd(notify.sd, critical_);
    }
  } else if (m.type == msg::kServiceUpdate) {
    const auto& update = m.as<ServiceUpdate>();
    central_evidence(m.src);
    Message ack;
    ack.src = id();
    ack.dst = m.src;
    ack.type = msg::kClientUpdateAck;
    ack.klass = MessageClass::kControl;
    ack.payload = Ack{update.token};
    network().send(ack);
    if (update.invalidation) {
      // Invalidation mode: only the version moved; defer the fetch by the
      // application access delay so bursts of changes coalesce into one
      // fetch (the Alex-style efficiency win for hot services).
      if (sd_.has_value() && update.sd.id == sd_->id &&
          update.sd.version > sd_->version) {
        invalidated_version_ = std::max(invalidated_version_,
                                        update.sd.version);
        if (!fetch_scheduled_) {
          fetch_scheduled_ = true;
          simulator().schedule_in(config().invalidation_fetch_delay, [this] {
            SDCM_PROFILE_SITE(simulator(), "timer.frodo.invalidation_fetch");
            fetch_scheduled_ = false;
            fetch_invalidated_version();
          });
        }
      }
    } else if (requirement_.matches(update.sd)) {
      store_sd(update.sd, update.critical);
    }
  } else if (m.type == msg::kUpdateHistory) {
    const auto& history = m.as<UpdateHistory>();
    for (const auto& sd : history.versions) {
      if (requirement_.matches(sd)) store_sd(sd, critical_);
    }
  } else if (m.type == msg::kSubscribeAck) {
    const auto& ack = m.as<SubscribeAck>();
    central_evidence(m.src);
    channel().acknowledge(ack.token);
    subscribe_in_flight_ = false;
    subscribed_ = true;
    trace(sim::TraceCategory::kSubscription, tag::kSubscribed,
          sim::TraceDetail{}.reason(two_party() ? reason::kTwoParty
                                                : reason::kThreeParty));
    if (ack.sd.has_value()) store_sd(*ack.sd, critical_);
    schedule_renewal(static_cast<sim::SimDuration>(
        static_cast<double>(ack.lease) * config().renew_fraction));
  } else if (m.type == msg::kResubscribeRequest) {
    const auto& req = m.as<ResubscribeRequest>();
    if (req.token != 0) channel().acknowledge(req.token);
    trace(sim::TraceCategory::kSubscription, tag::kResubscribing);
    subscribed_ = false;
    if (!subscribe_in_flight_) subscribe();
  } else if (m.type == msg::kServicePurged) {
    const auto& purged = m.as<ServicePurged>();
    if (sd_.has_value() && sd_->id == purged.service &&
        config().enable_pr5) {
      purge_manager(reason::kRegistryPurged);
    }
  } else if (m.type == msg::kAck) {
    channel().acknowledge(m.as<Ack>().token);
  }
}

void FrodoUser::adopt(const ServiceDescription& sd,
                      DeviceClass manager_class) {
  manager_ = sd.manager;
  manager_class_ = manager_class;
  stop_search();
  trace(sim::TraceCategory::kDiscovery, tag::kManagerDiscovered,
        sim::TraceDetail{}.peer(manager_).reason(class_atom(manager_class)));
  store_sd(sd, critical_);
  if (!subscribed_ && !subscribe_in_flight_) subscribe();
}

void FrodoUser::store_sd(const ServiceDescription& sd, bool critical) {
  critical_ = critical_ || critical;
  const bool newly_seen = versions_seen_.insert(sd.version).second;
  // Every newly obtained version counts as reached - SRC2 history
  // recovery can deliver an older version after a newer one, and the
  // critical-update guarantee is about the *complete* view.
  if (newly_seen && observer_ != nullptr) {
    observer_->user_reached(id(), sd.version, now());
  }
  if (sd_.has_value() && sd_->version >= sd.version) return;
  sd_ = sd;
  if (observer_ != nullptr) observer_->user_version(id(), sd.version, now());
  trace(sim::TraceCategory::kUpdate, tag::kDescriptionStored,
        sim::TraceDetail{}.version(sd.version));
  // SRC2: a critical service requires the complete view; request any
  // versions the sequence numbers show we missed.
  if (critical_) request_missing_versions(sd.id);
}

void FrodoUser::fetch_invalidated_version() {
  if (!sd_.has_value() || invalidated_version_ <= sd_->version) return;
  Message m;
  m.src = id();
  m.dst = two_party() ? manager_ : central();
  if (m.dst == sim::kNoNode) return;
  m.type = msg::kUpdateRequest;
  m.klass = MessageClass::kUpdate;
  m.bytes = 64;
  m.payload = UpdateRequest{id(), sd_->id, invalidated_version_};
  trace(sim::TraceCategory::kUpdate, tag::kInvalidationFetch,
        sim::TraceDetail{}.from_version(invalidated_version_));
  network().send(m);
}

void FrodoUser::request_missing_versions(ServiceId service) {
  if (!sd_.has_value()) return;
  ServiceVersion first_missing = 0;
  for (ServiceVersion v = 1; v < sd_->version; ++v) {
    if (!versions_seen_.contains(v)) {
      first_missing = v;
      break;
    }
  }
  if (first_missing == 0) return;
  trace(sim::TraceCategory::kUpdate, tag::kSrc2Request,
        sim::TraceDetail{}.from_version(first_missing));
  Message m;
  m.src = id();
  m.dst = two_party() ? manager_ : central();
  if (m.dst == sim::kNoNode) return;
  m.type = msg::kUpdateRequest;
  m.klass = MessageClass::kUpdate;
  m.payload = UpdateRequest{id(), service, first_missing};
  network().send(m);
}

// --------------------------------------------------------------------
// Subscription
// --------------------------------------------------------------------

void FrodoUser::subscribe() {
  if (!sd_.has_value() || !has_manager()) return;
  const NodeId lessor = two_party() ? manager_ : central();
  if (lessor == sim::kNoNode) return;
  subscribe_in_flight_ = true;
  const Token token = channel().allocate_token();
  Message m;
  m.src = id();
  m.dst = lessor;
  m.type = msg::kSubscriptionRequest;
  m.klass = MessageClass::kControl;
  m.payload = SubscriptionRequest{token, id(), sd_->id, sd_->version};
  trace(sim::TraceCategory::kSubscription, tag::kSubscribeTx,
        sim::TraceDetail{}.peer(lessor));
  channel().send(token, std::move(m), srn1_options(), /*on_acked=*/{},
                 /*on_failed=*/[this] {
                   subscribe_in_flight_ = false;
                   // Retry later; PR5 (search) or Central rediscovery
                   // will also re-trigger subscription.
                   simulator().schedule_in(config().search_retry, [this] {
                     SDCM_PROFILE_SITE(simulator(),
                                       "timer.frodo.subscribe_retry");
                     if (!subscribed_ && !subscribe_in_flight_ &&
                         sd_.has_value()) {
                       subscribe();
                     }
                   });
                 });
}

void FrodoUser::schedule_renewal(sim::SimDuration delay) {
  simulator().reschedule_in(renew_timer_, delay, [this] {
    SDCM_PROFILE_SITE(simulator(), "timer.frodo.lease_renew");
    renew_timer_ = sim::kInvalidEventId;
    send_renewal();
  });
}

void FrodoUser::send_renewal() {
  if (!subscribed_ || !sd_.has_value()) return;
  // Renewals are fire-and-forget in both modes (Figure 1 shows
  // SubscriptionRenew without an ack). A renewal landing at a lessor that
  // purged us triggers PR3 (Central) / PR4 (2-party Manager); a renewal
  // from an inconsistent User triggers SRN2 at a 2-party Manager. A dead
  // Manager is detected via the Central's ServicePurged (PR5).
  const NodeId lessor = two_party() ? manager_ : central();
  if (lessor == sim::kNoNode) return;  // resubscribe on rediscovery instead
  Message m;
  m.src = id();
  m.dst = lessor;
  m.type = msg::kSubscriptionRenew;
  m.klass = MessageClass::kControl;
  m.payload = SubscriptionRenew{0, id(), sd_->id};
  network().send(m);
  schedule_renewal(static_cast<sim::SimDuration>(
      static_cast<double>(config().subscription_lease) *
      config().renew_fraction));
}

void FrodoUser::depart() {
  FrodoClient::depart();
  stop_search();
  poll_timer_.stop();
  trace(sim::TraceCategory::kDiscovery, tag::kManagerPurged,
        sim::TraceDetail{}.reason(reason::kDepart));
  manager_ = sim::kNoNode;
  sd_.reset();
  versions_seen_.clear();
  critical_ = false;
  invalidated_version_ = 0;
  subscribed_ = false;
  subscribe_in_flight_ = false;
  if (renew_timer_ != sim::kInvalidEventId) {
    simulator().cancel(renew_timer_);
    renew_timer_ = sim::kInvalidEventId;
  }
}

void FrodoUser::purge_manager(sim::Atom why) {
  trace(sim::TraceCategory::kDiscovery, tag::kManagerPurged,
        sim::TraceDetail{}.reason(why));
  manager_ = sim::kNoNode;
  sd_.reset();
  versions_seen_.clear();
  subscribed_ = false;
  subscribe_in_flight_ = false;
  if (renew_timer_ != sim::kInvalidEventId) {
    simulator().cancel(renew_timer_);
    renew_timer_ = sim::kInvalidEventId;
  }
  // PR5: rediscover - unicast Registry query first, multicast fallback.
  begin_search();
}

}  // namespace sdcm::frodo
