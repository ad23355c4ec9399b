#include "sdcm/frodo/registry_node.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "sdcm/discovery/observer.hpp"
#include "sdcm/obs/instrument.hpp"
#include "sdcm/obs/profile_site.hpp"

namespace sdcm::frodo {

using discovery::ServiceDescription;
using net::Message;
using net::MessageClass;

std::string_view to_string(FrodoRegistryNode::Role role) noexcept {
  switch (role) {
    case FrodoRegistryNode::Role::kElecting: return "electing";
    case FrodoRegistryNode::Role::kCentral: return "central";
    case FrodoRegistryNode::Role::kBackup: return "backup";
    case FrodoRegistryNode::Role::kStandby: return "standby";
  }
  return "?";
}

namespace {
/// Election / conflict ordering: epoch first, then capability, then id.
bool outranks(std::uint64_t epoch_a, Capability cap_a, NodeId id_a,
              std::uint64_t epoch_b, Capability cap_b, NodeId id_b) {
  if (epoch_a != epoch_b) return epoch_a > epoch_b;
  if (cap_a != cap_b) return cap_a > cap_b;
  return id_a > id_b;
}
}  // namespace

FrodoRegistryNode::FrodoRegistryNode(sim::Simulator& simulator,
                                     net::Network& network, NodeId id,
                                     Capability capability, FrodoConfig config,
                                     discovery::ConsistencyObserver* observer)
    : Node(simulator, network, id, "frodo-registry"),
      config_(config),
      observer_(observer),
      capability_(capability),
      channel_(simulator, network) {}

std::size_t FrodoRegistryNode::subscription_count(ServiceId service) const {
  const auto it = subscriptions_.find(service);
  return it == subscriptions_.end() ? 0 : it->second.size();
}

void FrodoRegistryNode::start() {
  role_ = Role::kElecting;
  candidates_[id()] = capability_;
  // Announce candidacy: a registry-capable NodeAnnounce starts / joins the
  // election among the 300D nodes (Section 3).
  Message m;
  m.src = id();
  m.type = msg::kNodeAnnounce;
  m.klass = MessageClass::kDiscovery;
  m.payload = NodeAnnounce{id(), DeviceClass::k300D, capability_, true};
  network().multicast(m, 1);

  election_timer_ = simulator().schedule_in(config_.election_window, [this] {
    SDCM_PROFILE_SITE(simulator(), "timer.frodo.election");
    election_timer_ = sim::kInvalidEventId;
    conclude_election();
  });
}

void FrodoRegistryNode::conclude_election() {
  if (role_ != Role::kElecting) return;
  if (known_central_ != sim::kNoNode) {
    become_standby();
    return;
  }
  const auto best = std::max_element(
      candidates_.begin(), candidates_.end(), [](const auto& a, const auto& b) {
        return outranks(0, b.second, b.first, 0, a.second, a.first);
      });
  if (best != candidates_.end() && best->first == id()) {
    become_central(known_epoch_ + 1);
  } else {
    become_standby();
  }
}

void FrodoRegistryNode::become_central(std::uint64_t epoch) {
  role_ = Role::kCentral;
  epoch_ = epoch;
  known_central_ = id();
  known_epoch_ = epoch;
  trace(sim::TraceCategory::kElection, tag::kCentralElected,
        sim::TraceDetail{}.epoch(epoch));

  // If we were the Backup, install the synced configuration with fresh
  // leases (Section 3: "the Backup takes over automatically").
  if (!synced_.registrations.empty() || !synced_.subscriptions.empty() ||
      !synced_.interests.empty()) {
    for (const auto& rec : synced_.registrations) {
      Registration reg;
      reg.sd = rec.sd;
      reg.manager_class = rec.manager_class;
      reg.critical = rec.critical;
      reg.lease = discovery::Lease{now(), config_.registration_lease};
      reg.history[rec.sd.version] = rec.sd;
      registrations_.insert_or_assign(rec.sd.id, std::move(reg));
      arm_registration_expiry(rec.sd.id);
    }
    for (const auto& rec : synced_.subscriptions) {
      auto& sub = subscriptions_[rec.service][rec.user];
      sub.lease = discovery::Lease{now(), config_.subscription_lease};
      arm_subscription_expiry(rec.service, rec.user);
      if (observer_ != nullptr) {
        observer_->lease_granted(id(), rec.user, sub.lease.expires_at(),
                                 now());
      }
    }
    for (const auto& rec : synced_.interests) {
      interests_[rec.user] = rec.matching;
    }
    synced_ = BackupSync{};
  }

  announce_central();
  SDCM_PROFILE_TIMER(announce_timer_, "timer.frodo.central_announce");
  announce_timer_.start(simulator(), config_.announce_period,
                        config_.announce_period,
                        [this] { announce_central(); });
  monitor_timer_.stop();
  backup_ = sim::kNoNode;
  appoint_backup();
}

void FrodoRegistryNode::announce_central() {
  Message m;
  m.src = id();
  m.type = msg::kCentralAnnounce;
  m.klass = MessageClass::kDiscovery;
  m.payload = CentralAnnounce{id(), capability_, epoch_};
  network().multicast(m, config_.multicast_redundancy);
}

void FrodoRegistryNode::become_standby() {
  role_ = Role::kStandby;
  announce_timer_.stop();
  SDCM_PROFILE_TIMER(monitor_timer_, "timer.frodo.monitor");
  monitor_timer_.start(
      simulator(), config_.announce_period,
      config_.announce_period, [this] { monitor_tick(); });
}

void FrodoRegistryNode::monitor_tick() {
  const auto silence = now() - last_central_heard_;
  const auto period = config_.announce_period;
  if (role_ == Role::kBackup &&
      silence > config_.backup_miss_threshold * period) {
    trace(sim::TraceCategory::kElection, tag::kBackupTakeover,
          sim::TraceDetail{}.duration(silence));
    monitor_timer_.stop();
    become_central(known_epoch_ + 1);
  } else if (role_ == Role::kStandby &&
             silence > config_.standby_miss_threshold * period) {
    trace(sim::TraceCategory::kElection, tag::kStandbyReelection);
    monitor_timer_.stop();
    known_central_ = sim::kNoNode;
    candidates_.clear();
    start();
  }
}

void FrodoRegistryNode::appoint_backup() {
  if (role_ != Role::kCentral || backup_ != sim::kNoNode) return;
  NodeId best = sim::kNoNode;
  Capability best_cap = 0;
  for (const auto& [node, cap] : candidates_) {
    if (node == id()) continue;
    if (best == sim::kNoNode || outranks(0, cap, node, 0, best_cap, best)) {
      best = node;
      best_cap = cap;
    }
  }
  if (best == sim::kNoNode) return;

  const Token token = channel_.allocate_token();
  Message m;
  m.src = id();
  m.dst = best;
  m.type = msg::kBackupAssign;
  m.klass = MessageClass::kControl;
  m.payload = BackupAssign{token, id(), epoch_};
  channel_.send(token, std::move(m),
                {config_.srn1_retries, config_.srn1_spacing},
                [this, best] {
                  backup_ = best;
                  trace(sim::TraceCategory::kElection, tag::kBackupAssigned,
                        sim::TraceDetail{}.peer(best));
                  sync_backup();
                });
}

void FrodoRegistryNode::sync_backup() {
  if (role_ != Role::kCentral || backup_ == sim::kNoNode) return;
  BackupSync sync;
  for (const auto& [service, reg] : registrations_) {
    sync.registrations.push_back(
        BackupSync::RegistrationRecord{reg.sd, reg.manager_class,
                                       reg.critical});
  }
  for (const auto& [service, users] : subscriptions_) {
    for (const auto& [user, sub] : users) {
      sync.subscriptions.push_back(BackupSync::SubscriptionRecord{service, user});
    }
  }
  for (const auto& [user, matching] : interests_) {
    sync.interests.push_back(BackupSync::InterestRecord{user, matching});
  }
  Message m;
  m.src = id();
  m.dst = backup_;
  m.type = msg::kBackupSync;
  m.klass = MessageClass::kControl;
  m.payload = std::move(sync);
  network().send(m);
}

std::optional<std::vector<net::MessageType>>
FrodoRegistryNode::multicast_interests() const {
  // Registry-capable nodes track the Central and absorb the whole
  // population's NodeAnnounce stream; searches arrive unicast once a
  // Central exists, and the multicast fallback search is manager
  // traffic handled there.
  return std::vector<net::MessageType>{msg::kCentralAnnounce,
                                       msg::kNodeAnnounce};
}

void FrodoRegistryNode::on_message(const Message& m) {
  if (m.type == msg::kCentralAnnounce) {
    handle_central_announce(m);
  } else if (m.type == msg::kNodeAnnounce) {
    handle_node_announce(m);
  } else if (m.type == msg::kBackupAssign) {
    handle_backup_assign(m);
  } else if (m.type == msg::kBackupSync) {
    handle_backup_sync(m);
  } else if (m.type == msg::kAck || m.type == msg::kClientUpdateAck ||
             m.type == msg::kNotificationAck) {
    channel_.acknowledge(m.as<Ack>().token);
  } else if (role_ == Role::kCentral) {
    if (m.type == msg::kRegister) {
      handle_register(m);
    } else if (m.type == msg::kRenewRegistration) {
      handle_renew_registration(m);
    } else if (m.type == msg::kServiceUpdate) {
      handle_service_update(m);
    } else if (m.type == msg::kServiceSearch) {
      handle_service_search(m);
    } else if (m.type == msg::kSubscriptionRequest) {
      handle_subscription_request(m);
    } else if (m.type == msg::kSubscriptionRenew) {
      handle_subscription_renew(m);
    } else if (m.type == msg::kNotificationRequest) {
      handle_notification_request(m);
    } else if (m.type == msg::kUpdateRequest) {
      handle_update_request(m);
    }
  }
}

void FrodoRegistryNode::handle_central_announce(const Message& m) {
  const auto& ann = m.as<CentralAnnounce>();
  if (ann.central == id()) return;
  last_central_heard_ = now();

  if (role_ == Role::kCentral) {
    // Dueling Centrals: the higher (epoch, capability, id) keeps the role;
    // the loser demotes and re-announces itself as a plain candidate so
    // the winner can appoint it as Backup.
    if (outranks(ann.epoch, ann.capability, ann.central, epoch_, capability_,
                 id())) {
      trace(sim::TraceCategory::kElection, tag::kCentralDemoted,
            sim::TraceDetail{}.peer(ann.central));
      announce_timer_.stop();
      known_central_ = ann.central;
      known_epoch_ = ann.epoch;
      registrations_.clear();
      if (observer_ != nullptr) {
        for (const auto& [service, subs] : subscriptions_) {
          for (const auto& entry : subs) {
            observer_->lease_dropped(id(), entry.first, now());
          }
        }
      }
      subscriptions_.clear();
      interests_.clear();
      backup_ = sim::kNoNode;
      become_standby();
      Message announce;
      announce.src = id();
      announce.type = msg::kNodeAnnounce;
      announce.klass = MessageClass::kDiscovery;
      announce.payload = NodeAnnounce{id(), DeviceClass::k300D, capability_,
                                      true};
      network().multicast(announce, 1);
    } else {
      announce_central();  // reassert
    }
    return;
  }

  known_central_ = ann.central;
  known_epoch_ = std::max(known_epoch_, ann.epoch);
  if (role_ == Role::kElecting) {
    if (election_timer_ != sim::kInvalidEventId) {
      simulator().cancel(election_timer_);
      election_timer_ = sim::kInvalidEventId;
    }
    become_standby();
  }
}

void FrodoRegistryNode::handle_node_announce(const Message& m) {
  const auto& ann = m.as<NodeAnnounce>();
  if (ann.registry_capable) {
    candidates_[ann.node] = ann.capability;
  }
  if (role_ == Role::kCentral) {
    // Fast discovery: tell the announcer where the Registry is.
    Message reply;
    reply.src = id();
    reply.dst = ann.node;
    reply.type = msg::kRegistryHere;
    reply.klass = MessageClass::kDiscovery;
    reply.payload = RegistryHere{id(), epoch_};
    network().send(reply);
    if (ann.registry_capable && backup_ == sim::kNoNode) {
      appoint_backup();
    } else if (ann.node == backup_) {
      sync_backup();  // the Backup may have rebooted; refresh its state
    }
  }
}

void FrodoRegistryNode::handle_backup_assign(const Message& m) {
  const auto& assign = m.as<BackupAssign>();
  if (role_ == Role::kCentral) return;  // refuse while acting as Central
  role_ = Role::kBackup;
  known_central_ = assign.central;
  known_epoch_ = assign.epoch;
  last_central_heard_ = now();
  trace(sim::TraceCategory::kElection, tag::kBackupAccepted,
        sim::TraceDetail{}.peer(assign.central));
  SDCM_PROFILE_TIMER(monitor_timer_, "timer.frodo.monitor");
  monitor_timer_.start(
      simulator(), config_.announce_period,
      config_.announce_period, [this] { monitor_tick(); });
  Message ack;
  ack.src = id();
  ack.dst = assign.central;
  ack.type = msg::kAck;
  ack.klass = MessageClass::kControl;
  ack.payload = Ack{assign.token};
  network().send(ack);
}

void FrodoRegistryNode::handle_backup_sync(const Message& m) {
  if (role_ != Role::kBackup) return;
  synced_ = m.as<BackupSync>();
  last_central_heard_ = now();
}

// --------------------------------------------------------------------
// Central duties
// --------------------------------------------------------------------

void FrodoRegistryNode::arm_registration_expiry(ServiceId service) {
  registrations_.at(service).arm(
      simulator(), [this, service] { purge_registration(service); });
}

void FrodoRegistryNode::arm_subscription_expiry(ServiceId service,
                                                NodeId user) {
  subscriptions_.at(service).at(user).arm(
      simulator(),
      [this, service, user] { purge_subscription(service, user); });
}

void FrodoRegistryNode::handle_register(const Message& m) {
  const auto& reg_msg = m.as<Register>();
  auto [it, inserted] = registrations_.try_emplace(reg_msg.sd.id);
  Registration& reg = it->second;
  const bool changed = inserted || reg.sd.version != reg_msg.sd.version;
  reg.sd = reg_msg.sd;
  reg.manager_class = reg_msg.manager_class;
  reg.critical = reg_msg.critical;
  reg.lease = discovery::Lease{now(), config_.registration_lease};
  reg.history[reg.sd.version] = reg.sd;
  arm_registration_expiry(reg_msg.sd.id);
  trace(sim::TraceCategory::kDiscovery, tag::kRegistered,
        sim::TraceDetail{}
            .service(reg_msg.sd.id)
            .version(reg_msg.sd.version)
            .reason(inserted ? reason::kNew : reason::kRefresh));

  Message ack;
  ack.src = id();
  ack.dst = reg_msg.manager;
  ack.type = msg::kRegisterAck;
  // Acking an update-carrying re-registration is part of the update
  // transaction (kUpdate); the initial registration ack is discovery.
  ack.klass = reg_msg.sd.version > 1 ? MessageClass::kUpdate
                                     : MessageClass::kDiscovery;
  ack.bytes = 48;
  ack.payload =
      RegisterAck{reg_msg.token, reg_msg.sd.id, config_.registration_lease};
  network().send(ack);

  sync_backup();
  // PR1: notify interested Users about the new / re-registered service -
  // including registrations that existed before their interest (handled
  // in handle_notification_request); here: every registration event.
  if (changed && config_.enable_pr1) notify_interests(reg_msg.sd.id);
}

void FrodoRegistryNode::handle_renew_registration(const Message& m) {
  const auto& renew = m.as<RenewRegistration>();
  const auto it = registrations_.find(renew.service);
  if (it == registrations_.end()) {
    // Lease lapsed here: ask for a (PR1) re-registration; this also
    // settles the Manager's pending renewal exchange.
    Message req;
    req.src = id();
    req.dst = renew.manager;
    req.type = msg::kReregisterRequest;
    req.klass = MessageClass::kControl;
    req.payload = ReregisterRequest{renew.token, renew.service};
    network().send(req);
    return;
  }
  it->second.lease.renew(now());
  arm_registration_expiry(renew.service);
  Message ack;
  ack.src = id();
  ack.dst = renew.manager;
  ack.type = msg::kAck;
  ack.klass = MessageClass::kControl;
  ack.payload = Ack{renew.token};
  network().send(ack);
}

void FrodoRegistryNode::handle_service_update(const Message& m) {
  const auto& update = m.as<ServiceUpdate>();
  const auto it = registrations_.find(update.sd.id);
  if (it == registrations_.end()) {
    Message req;
    req.src = id();
    req.dst = update.sd.manager;
    req.type = msg::kReregisterRequest;
    req.klass = MessageClass::kControl;
    req.payload = ReregisterRequest{update.token, update.sd.id};
    network().send(req);
    return;
  }
  Registration& reg = it->second;
  const bool newer = update.sd.version > reg.sd.version;
  if (newer) {
    reg.sd = update.sd;
    reg.critical = update.critical;
    reg.history[update.sd.version] = update.sd;
  }
  reg.lease.renew(now());  // an update is proof of life
  arm_registration_expiry(update.sd.id);

  Message ack;
  ack.src = id();
  ack.dst = update.sd.manager;
  ack.type = msg::kUpdateAck;
  ack.klass = MessageClass::kUpdate;  // the "+2" of the paper's N+2
  ack.bytes = 48;
  ack.payload = Ack{update.token};
  network().send(ack);

  if (newer) {
    const sim::SpanId stored =
        trace(sim::TraceCategory::kUpdate, tag::kUpdateStored,
              sim::TraceDetail{}
                  .service(update.sd.id)
                  .version(update.sd.version));
    // The Central's fan-out to the subscribed Users descends from the
    // stored update, which itself descends from the Manager's send.
    sim::SpanScope scope(simulator().trace(), stored);
    sync_backup();
    propagate_update(update.sd.id);
  }
}

void FrodoRegistryNode::propagate_update(ServiceId service) {
  if (!config_.enable_notification) return;  // CM2-only study
  const auto reg_it = registrations_.find(service);
  const auto subs_it = subscriptions_.find(service);
  if (reg_it == registrations_.end() || subs_it == subscriptions_.end()) {
    return;
  }
  const Registration& reg = reg_it->second;
  for (const auto& [user, sub] : subs_it->second) {
    const Token token = channel_.allocate_token();
    Message m;
    m.src = id();
    m.dst = user;
    m.type = msg::kServiceUpdate;
    m.klass = MessageClass::kUpdate;
    m.bytes = discovery::wire_size(reg.sd);
    m.payload = ServiceUpdate{token, reg.sd, reg.critical};
    m.span = trace(sim::TraceCategory::kUpdate, tag::kUpdateTx,
                   sim::TraceDetail{}.peer(user).version(reg.sd.version));
    if (observer_ != nullptr) {
      observer_->notification_sent(id(), user, reg.sd.version, now());
    }
    // SRC1 for critical services (unlimited), SRN1 otherwise. There is no
    // SRN2 at the Central (Table 4: SRN2 is the 2-party Manager's); a
    // failed propagation is recovered by PR3 / PR1.
    channel_.send(token, std::move(m),
                  reg.critical
                      ? AckedChannel::Options{-1, config_.src1_spacing}
                      : AckedChannel::Options{config_.srn1_retries,
                                              config_.srn1_spacing});
  }
}

void FrodoRegistryNode::notify_interests(ServiceId service) {
  for (const auto& [user, matching] : interests_) {
    const auto& reg = registrations_.at(service);
    if (!matching.matches(reg.sd)) continue;
    notify_interest(user, service);
  }
}

void FrodoRegistryNode::notify_interest(NodeId user, ServiceId service) {
  const auto& reg = registrations_.at(service);
  const Token token = channel_.allocate_token();
  Message m;
  m.src = id();
  m.dst = user;
  m.type = msg::kServiceNotification;
  m.klass = reg.sd.version > 1 ? MessageClass::kUpdate
                               : MessageClass::kDiscovery;
  m.bytes = 48 + discovery::wire_size(reg.sd);
  m.payload = ServiceNotification{token, reg.sd, reg.manager_class};
  m.span = trace(sim::TraceCategory::kUpdate, tag::kNotifyTx,
                 sim::TraceDetail{}.peer(user).version(reg.sd.version));
  SDCM_OBS_ONLY(if (reg.sd.version > 1) {
    // A version the User may have missed is being pushed by interest
    // notification: that is PR1 doing recovery, not plain discovery.
    simulator().obs().counter("recovery.frodo.pr1").inc();
  });
  channel_.send(token, std::move(m),
                {config_.srn1_retries, config_.srn1_spacing});
}

void FrodoRegistryNode::handle_service_search(const Message& m) {
  const auto& search = m.as<ServiceSearch>();
  ServiceFound found;
  for (const auto& [service, reg] : registrations_) {
    if (search.matching.matches(reg.sd)) {
      found.found = true;
      found.sd = reg.sd;
      found.manager_class = reg.manager_class;
      break;
    }
  }
  Message reply;
  reply.src = id();
  reply.dst = search.user;
  reply.type = msg::kServiceFound;
  reply.klass = found.found && found.sd.version > 1 ? MessageClass::kUpdate
                                                    : MessageClass::kDiscovery;
  reply.bytes = found.found ? 48 + discovery::wire_size(found.sd) : 48;
  reply.payload = std::move(found);
  network().send(reply);
}

void FrodoRegistryNode::handle_subscription_request(const Message& m) {
  const auto& req = m.as<SubscriptionRequest>();
  const auto reg_it = registrations_.find(req.service);
  if (reg_it == registrations_.end()) {
    // Nothing to subscribe to: tell the User the service is gone so it
    // starts PR5 rediscovery.
    Message gone;
    gone.src = id();
    gone.dst = req.user;
    gone.type = msg::kServicePurged;
    gone.klass = MessageClass::kControl;
    gone.payload = ServicePurged{req.service};
    network().send(gone);
    return;
  }

  auto& sub = subscriptions_[req.service][req.user];
  sub.lease = discovery::Lease{now(), config_.subscription_lease};
  arm_subscription_expiry(req.service, req.user);
  if (observer_ != nullptr) {
    observer_->lease_granted(id(), req.user, sub.lease.expires_at(), now());
  }
  trace(sim::TraceCategory::kSubscription, tag::kSubscribed,
        sim::TraceDetail{}.peer(req.user));
  sync_backup();

  Message ack;
  ack.src = id();
  ack.dst = req.user;
  ack.type = msg::kSubscribeAck;
  SubscribeAck payload{req.token, req.service, config_.subscription_lease,
                       std::nullopt};
  // PR3 payload: a (re)subscription is answered with the updated
  // description when the User's copy is stale.
  if (reg_it->second.sd.version > req.known_version) {
    payload.sd = reg_it->second.sd;
    ack.klass = reg_it->second.sd.version > 1 ? MessageClass::kUpdate
                                              : MessageClass::kDiscovery;
  } else {
    ack.klass = MessageClass::kControl;
  }
  ack.payload = std::move(payload);
  network().send(ack);
}

void FrodoRegistryNode::handle_subscription_renew(const Message& m) {
  const auto& renew = m.as<SubscriptionRenew>();
  const auto subs_it = subscriptions_.find(renew.service);
  const bool known = subs_it != subscriptions_.end() &&
                     subs_it->second.contains(renew.user);
  if (known) {
    auto& sub = subs_it->second.at(renew.user);
    sub.lease.renew(now());
    arm_subscription_expiry(renew.service, renew.user);
    if (observer_ != nullptr) {
      observer_->lease_granted(id(), renew.user, sub.lease.expires_at(),
                               now());
    }
    // 3-party renewals are not acknowledged (Figure 1).
    return;
  }
  if (!config_.enable_pr3) return;
  // PR3: the Registry explicitly requests the purged User to resubscribe;
  // the resubscription response will carry the updated description.
  Message req;
  req.src = id();
  req.dst = renew.user;
  req.type = msg::kResubscribeRequest;
  req.klass = MessageClass::kControl;
  req.payload = ResubscribeRequest{renew.token, renew.service};
  req.span = trace(sim::TraceCategory::kSubscription,
                   tag::kResubscribeRequest,
                   sim::TraceDetail{}.peer(renew.user));
  SDCM_OBS_ONLY(simulator().obs().counter("recovery.frodo.pr3").inc());
  network().send(req);
}

void FrodoRegistryNode::handle_notification_request(const Message& m) {
  const auto& req = m.as<NotificationRequest>();
  interests_[req.user] = req.matching;
  sync_backup();
  if (!config_.enable_pr1) return;
  // FRODO's PR1 improvement over Jini: notify about *existing* matching
  // registrations right away - but only when the Registry holds something
  // newer than the User already has.
  for (const auto& [service, reg] : registrations_) {
    if (req.matching.matches(reg.sd) && reg.sd.version > req.known_version) {
      notify_interest(req.user, service);
    }
  }
}

void FrodoRegistryNode::handle_update_request(const Message& m) {
  // SRC2: a User detected a sequence gap and asks for missed versions.
  const auto& req = m.as<UpdateRequest>();
  const auto it = registrations_.find(req.service);
  if (it == registrations_.end()) return;
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

void FrodoRegistryNode::purge_registration(ServiceId service) {
  const auto it = registrations_.find(service);
  if (it == registrations_.end()) return;
  const discovery::ServiceDescription sd = it->second.sd;
  registrations_.erase(it);
  trace(sim::TraceCategory::kLease, tag::kRegistrationPurged,
        sim::TraceDetail{}.service(service));
  // Feed PR5: tell every User that cares (3-party subscribers and, for
  // 2-party services, interested Users - the Central cannot see direct
  // subscriptions) that the Manager was purged; they purge the
  // subscription and rediscover the service themselves.
  std::set<NodeId> recipients;
  const auto subs_it = subscriptions_.find(service);
  if (subs_it != subscriptions_.end()) {
    for (auto& [user, sub] : subs_it->second) {
      sub.cancel(simulator());
      if (observer_ != nullptr) observer_->lease_dropped(id(), user, now());
      recipients.insert(user);
    }
    subscriptions_.erase(subs_it);
  }
  for (const auto& [user, matching] : interests_) {
    if (matching.matches(sd)) recipients.insert(user);
  }
  for (const NodeId user : recipients) {
    Message gone;
    gone.src = id();
    gone.dst = user;
    gone.type = msg::kServicePurged;
    gone.klass = MessageClass::kControl;
    gone.payload = ServicePurged{service};
    network().send(gone);
  }
  sync_backup();
}

void FrodoRegistryNode::purge_subscription(ServiceId service, NodeId user) {
  const auto it = subscriptions_.find(service);
  if (it == subscriptions_.end()) return;
  if (it->second.erase(user) > 0) {
    if (observer_ != nullptr) observer_->lease_dropped(id(), user, now());
    trace(sim::TraceCategory::kLease, tag::kSubscriptionPurged,
          sim::TraceDetail{}.peer(user));
    sync_backup();
  }
}

}  // namespace sdcm::frodo
