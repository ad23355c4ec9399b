#include "sdcm/upnp/manager.hpp"

#include <cassert>
#include <stdexcept>

#include "sdcm/net/tcp.hpp"
#include "sdcm/obs/profile_site.hpp"

namespace sdcm::upnp {

using discovery::ServiceDescription;
using discovery::ServiceId;
using net::Message;
using net::MessageClass;

UpnpManager::UpnpManager(sim::Simulator& simulator, net::Network& network,
                         NodeId id, UpnpConfig config,
                         discovery::ConsistencyObserver* observer)
    : Node(simulator, network, id, "upnp-manager"),
      config_(config),
      observer_(observer) {}

void UpnpManager::add_service(ServiceDescription sd) {
  sd.manager = this->id();
  const auto service = sd.id;
  services_.insert_or_assign(service, std::move(sd));
}

void UpnpManager::start() {
  running_ = true;
  announce_all();
  SDCM_PROFILE_TIMER(announce_timer_, "timer.upnp.announce");
  announce_timer_.start(simulator(), config_.announce_period,
                        config_.announce_period, [this] { announce_all(); });
}

void UpnpManager::shutdown() {
  running_ = false;
  announce_timer_.stop();
  for (const auto& [service, sd] : services_) {
    Message m;
    m.src = id();
    m.type = msg::kByeBye;
    m.klass = MessageClass::kDiscovery;
    m.payload = ByeBye{id(), service};
    network().multicast(m, config_.multicast_redundancy);
  }
  if (observer_ != nullptr) {
    for (const auto& [service, users] : subs_) {
      for (const auto& entry : users) {
        observer_->lease_dropped(id(), entry.first, now());
      }
    }
  }
  subs_.clear();
  trace(sim::TraceCategory::kDiscovery, tag::kShutdown);
}

void UpnpManager::depart() {
  running_ = false;
  announce_timer_.stop();
  for (auto& [service, users] : subs_) {
    for (auto& [user, sub] : users) {
      sub.cancel(simulator());
      if (observer_ != nullptr) observer_->lease_dropped(id(), user, now());
    }
  }
  subs_.clear();
  trace(sim::TraceCategory::kDiscovery, tag::kManagerDepart);
}

void UpnpManager::announce_now() {
  if (running_) announce_all();
}

void UpnpManager::announce_all() {
  for (const auto& [service, sd] : services_) {
    Message m;
    m.src = id();
    m.type = msg::kAlive;
    m.klass = MessageClass::kDiscovery;
    m.payload = Alive{id(), service, sd.device_type, sd.service_type};
    network().multicast(m, config_.multicast_redundancy);
  }
  trace(sim::TraceCategory::kDiscovery, tag::kAnnounce);
}

const ServiceDescription& UpnpManager::service(ServiceId service) const {
  const auto it = services_.find(service);
  if (it == services_.end()) throw std::out_of_range("unknown service");
  return it->second;
}

std::size_t UpnpManager::subscriber_count(ServiceId service) const {
  const auto it = subs_.find(service);
  return it == subs_.end() ? 0 : it->second.size();
}

bool UpnpManager::has_subscriber(ServiceId service, NodeId user) const {
  const auto it = subs_.find(service);
  return it != subs_.end() && it->second.contains(user);
}

void UpnpManager::change_service(ServiceId service) {
  change_service(service, {});
}

void UpnpManager::change_service(ServiceId service,
                                 const discovery::AttributeList& updates) {
  const auto it = services_.find(service);
  if (it == services_.end()) throw std::out_of_range("unknown service");
  for (const auto& [key, value] : updates) {
    it->second.attributes[key] = value;
  }
  bumped(it->second);
}

void UpnpManager::bumped(ServiceDescription& sd) {
  ++sd.version;
  const sim::SpanId change_span =
      trace(sim::TraceCategory::kUpdate, tag::kServiceChanged,
            sim::TraceDetail{}.service(sd.id).version(sd.version));
  // The GENA notifications (and through them each User's description
  // re-fetch) descend from this change record.
  sim::SpanScope change_scope(simulator().trace(), change_span);
  if (observer_ != nullptr) observer_->service_changed(sd.version, now());

  if (!config_.enable_notification) return;  // CM2-only study
  const auto subs_it = subs_.find(sd.id);
  if (subs_it == subs_.end()) return;
  // Snapshot the subscriber list: a REX purges entries while we iterate.
  std::vector<NodeId> users;
  users.reserve(subs_it->second.size());
  for (const auto& [user, sub] : subs_it->second) users.push_back(user);
  for (const NodeId user : users) notify_subscriber(sd.id, user);
}

void UpnpManager::notify_subscriber(ServiceId service, NodeId user) {
  const auto& sd = services_.at(service);
  Message m;
  m.src = id();
  m.dst = user;
  m.type = msg::kNotify;
  m.klass = MessageClass::kUpdate;
  m.bytes = 64;  // invalidation only: "a change has occurred"
  m.payload = Notify{service, sd.version};
  m.span = trace(sim::TraceCategory::kUpdate, tag::kNotifyTx,
                 sim::TraceDetail{}.peer(user));
  if (observer_ != nullptr) {
    observer_->notification_sent(id(), user, sd.version, now());
  }
  // GENA rule: an event that cannot be delivered cancels the subscription.
  net::TcpConnection::open_and_send(
      network(), std::move(m), /*on_acked=*/{},
      /*on_rex=*/
      [this, service, user] {
        purge_subscriber(service, user, reason::kNotifyRex);
      },
      config_.tcp);
}

void UpnpManager::purge_subscriber(ServiceId service, NodeId user,
                                   sim::Atom why) {
  const auto it = subs_.find(service);
  if (it == subs_.end()) return;
  Subscription* sub = it->second.find(user);
  if (sub == nullptr) return;
  sub->cancel(simulator());
  it->second.erase(user);
  if (observer_ != nullptr) observer_->lease_dropped(id(), user, now());
  trace(sim::TraceCategory::kSubscription, tag::kSubscriberPurged,
        sim::TraceDetail{}.peer(user).reason(why));
}

std::optional<std::vector<net::MessageType>> UpnpManager::multicast_interests()
    const {
  // Managers answer search probes; alive/byebye presence traffic is
  // User-side.
  return std::vector<net::MessageType>{msg::kMSearch};
}

void UpnpManager::on_message(const Message& m) {
  if (!running_) return;
  if (m.type == msg::kMSearch) {
    handle_msearch(m);
  } else if (m.type == msg::kGetDescription) {
    handle_get(m);
  } else if (m.type == msg::kSubscribe) {
    handle_subscribe(m);
  } else if (m.type == msg::kRenew) {
    handle_renew(m);
  }
}

void UpnpManager::handle_msearch(const Message& m) {
  const auto& search = m.as<MSearch>();
  for (const auto& [service, sd] : services_) {
    if (sd.device_type != search.device_type ||
        sd.service_type != search.service_type) {
      continue;
    }
    // SSDP search responses are unicast UDP (the HTTP exchanges below use
    // the TCP model).
    Message reply;
    reply.src = id();
    reply.dst = search.user;
    reply.type = msg::kSearchResponse;
    reply.klass = MessageClass::kDiscovery;
    reply.payload =
        SearchResponse{id(), service, sd.device_type, sd.service_type};
    network().send(reply);
  }
}

void UpnpManager::handle_get(const Message& m) {
  const auto& get = m.as<GetDescription>();
  const auto it = services_.find(get.service);
  if (it == services_.end()) return;
  assert(m.conn != nullptr);
  Message reply;
  reply.src = id();
  reply.dst = get.user;
  reply.type = msg::kDescription;
  // A description carrying a changed version is update propagation; the
  // initial (version 1) fetch is discovery traffic.
  reply.klass = it->second.version > 1 ? MessageClass::kUpdate
                                       : MessageClass::kDiscovery;
  reply.bytes = 48 + discovery::wire_size(it->second);
  reply.payload = Description{it->second};
  m.conn->send(std::move(reply));
}

void UpnpManager::handle_subscribe(const Message& m) {
  const auto& sub = m.as<Subscribe>();
  const auto it = services_.find(sub.service);
  assert(m.conn != nullptr);
  Message reply;
  reply.src = id();
  reply.dst = sub.user;
  reply.type = msg::kSubscribeResponse;
  reply.klass = MessageClass::kControl;
  if (it == services_.end()) {
    reply.payload = SubscribeResponse{sub.service, false, 0};
    m.conn->send(std::move(reply));
    return;
  }

  auto& entry = subs_[sub.service][sub.user];
  const NodeId user = sub.user;
  const ServiceId service = sub.service;
  entry.grant(
      simulator(), config_.subscription_lease, [this, service, user] {
        purge_subscriber(service, user, reason::kExpired);
      });
  if (observer_ != nullptr) {
    observer_->lease_granted(id(), user, entry.lease.expires_at(), now());
  }
  trace(sim::TraceCategory::kSubscription, tag::kSubscribed,
        sim::TraceDetail{}.peer(user));

  reply.payload =
      SubscribeResponse{sub.service, true, config_.subscription_lease};
  m.conn->send(std::move(reply));
}

void UpnpManager::handle_renew(const Message& m) {
  const auto& renew = m.as<Renew>();
  assert(m.conn != nullptr);
  Message reply;
  reply.src = id();
  reply.dst = renew.user;
  reply.type = msg::kRenewResponse;
  reply.klass = MessageClass::kControl;

  const auto it = subs_.find(renew.service);
  const bool known =
      it != subs_.end() && it->second.contains(renew.user);
  if (known) {
    auto& entry = it->second.at(renew.user);
    const NodeId user = renew.user;
    const ServiceId service = renew.service;
    entry.renew(simulator(), [this, service, user] {
      purge_subscriber(service, user, reason::kExpired);
    });
    if (observer_ != nullptr) {
      observer_->lease_granted(id(), user, entry.lease.expires_at(), now());
    }
    reply.payload = RenewResponse{renew.service, true};
  } else {
    // PR4: tell the purged User to resubscribe (if enabled; the ablation
    // variant silently ignores unknown renewals).
    if (!config_.enable_pr4) return;
    trace(sim::TraceCategory::kSubscription, tag::kRenewUnknown,
          sim::TraceDetail{}.peer(renew.user));
    reply.payload = RenewResponse{renew.service, false};
  }
  m.conn->send(std::move(reply));
}

}  // namespace sdcm::upnp
