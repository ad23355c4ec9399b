#include "sdcm/slp/slp.hpp"

#include <utility>

#include "sdcm/obs/profile_site.hpp"

namespace sdcm::slp {

using discovery::ServiceDescription;
using net::Message;
using net::MessageClass;

// ---------------------------------------------------------------------
// DirectoryAgent
// ---------------------------------------------------------------------

DirectoryAgent::DirectoryAgent(sim::Simulator& simulator,
                               net::Network& network, NodeId id,
                               SlpConfig config)
    : Node(simulator, network, id, "slp-da"), config_(config) {}

void DirectoryAgent::start() {
  const auto advertise = [this] {
    Message m;
    m.src = id();
    m.type = msg::kDaAdvert;
    m.klass = MessageClass::kDiscovery;
    m.payload = DaAdvert{id()};
    network().multicast(m, 1);
  };
  advertise();
  SDCM_PROFILE_TIMER(advert_timer_, "timer.slp.da_advert");
  advert_timer_.start(simulator(), config_.announce_period,
                      config_.announce_period, advertise);
}

std::optional<std::vector<net::MessageType>>
DirectoryAgent::multicast_interests() const {
  // Everything a DA consumes (SrvReg, SrvRqst) arrives unicast; an
  // engaged empty set means the scoped fan-out never delivers multicast
  // here at all.
  return std::vector<net::MessageType>{};
}

void DirectoryAgent::on_message(const Message& m) {
  if (m.type == msg::kSrvReg) {
    const auto& reg = m.as<SrvReg>();
    auto& entry = registrations_[reg.sd.id];
    entry.sd = reg.sd;
    const ServiceId service = reg.sd.id;
    simulator().reschedule_in(entry.expiry, config_.registration_lease,
                              [this, service] {
                                SDCM_PROFILE_SITE(simulator(),
                                                  "timer.slp.lease_expiry");
                                purge(service);
                              });

    Message ack;
    ack.src = id();
    ack.dst = reg.sa;
    ack.type = msg::kSrvAck;
    ack.klass = reg.sd.version > 1 ? MessageClass::kUpdate
                                   : MessageClass::kDiscovery;
    ack.bytes = 48;
    ack.payload = SrvAck{service, config_.registration_lease};
    network().send(ack);
  } else if (m.type == msg::kSrvRqst) {
    const auto& rqst = m.as<SrvRqst>();
    SrvRply rply;
    for (const auto& [service, entry] : registrations_) {
      if (entry.sd.service_type == rqst.service_type) {
        rply.found = true;
        rply.sd = entry.sd;
        break;
      }
    }
    Message reply;
    reply.src = id();
    reply.dst = rqst.ua;
    reply.type = msg::kSrvRply;
    reply.klass = rply.found && rply.sd.version > 1 ? MessageClass::kUpdate
                                                    : MessageClass::kDiscovery;
    reply.bytes = rply.found ? 48 + discovery::wire_size(rply.sd) : 48;
    reply.payload = std::move(rply);
    network().send(reply);
  }
}

void DirectoryAgent::purge(ServiceId service) {
  if (registrations_.erase(service) > 0) {
    trace(sim::TraceCategory::kLease, tag::kRegistrationPurged,
          sim::TraceDetail{}.service(service));
  }
}

// ---------------------------------------------------------------------
// ServiceAgent
// ---------------------------------------------------------------------

ServiceAgent::ServiceAgent(sim::Simulator& simulator, net::Network& network,
                           NodeId id, SlpConfig config,
                           discovery::ConsistencyObserver* observer)
    : Node(simulator, network, id, "slp-sa"),
      config_(config),
      observer_(observer) {}

void ServiceAgent::add_service(ServiceDescription sd) {
  sd.manager = this->id();
  const ServiceId service = sd.id;
  services_.insert_or_assign(service, std::move(sd));
}

void ServiceAgent::start() {
  // Re-registration doubles as the lease renewal (RFC 2608 SAs simply
  // re-register before the lifetime expires).
  SDCM_PROFILE_TIMER(renew_timer_, "timer.slp.reregister");
  renew_timer_.start(
      simulator(),
      static_cast<sim::SimDuration>(
          static_cast<double>(config_.registration_lease) *
          config_.renew_fraction),
      static_cast<sim::SimDuration>(
          static_cast<double>(config_.registration_lease) *
          config_.renew_fraction),
      [this] { register_all(); });
}

void ServiceAgent::register_all() {
  for (const auto& [service, sd] : services_) register_service(service);
}

void ServiceAgent::register_service(ServiceId service) {
  if (da_ == sim::kNoNode) return;  // peer-to-peer mode: nothing to do
  const auto& sd = services_.at(service);
  Message m;
  m.src = id();
  m.dst = da_;
  m.type = msg::kSrvReg;
  m.klass = sd.version > 1 ? MessageClass::kUpdate : MessageClass::kDiscovery;
  m.bytes = 48 + discovery::wire_size(sd);
  m.payload = SrvReg{id(), sd};
  network().send(m);
}

void ServiceAgent::change_service(ServiceId service) {
  auto& sd = services_.at(service);
  ++sd.version;
  trace(sim::TraceCategory::kUpdate, tag::kServiceChanged,
        sim::TraceDetail{}.service(service).version(sd.version));
  if (observer_ != nullptr) observer_->service_changed(sd.version, now());
  // No notification: the DA copy is refreshed, UAs learn on their next
  // poll (CM2 only - SLP's consistency maintenance per Section 4.2).
  register_service(service);
}

void ServiceAgent::da_heard(NodeId da) {
  const bool fresh = da_ == sim::kNoNode;
  da_ = da;
  simulator().reschedule_in(da_timeout_, config_.advert_timeout, [this] {
    SDCM_PROFILE_SITE(simulator(), "timer.slp.da_timeout");
    drop_da();
  });
  if (fresh) {
    trace(sim::TraceCategory::kDiscovery, tag::kDaDiscovered,
          sim::TraceDetail{}.peer(da));
    register_all();
  }
}

void ServiceAgent::drop_da() {
  trace(sim::TraceCategory::kDiscovery, tag::kDaDropped);
  da_ = sim::kNoNode;
  da_timeout_ = sim::kInvalidEventId;
}

std::optional<std::vector<net::MessageType>>
ServiceAgent::multicast_interests() const {
  return std::vector<net::MessageType>{msg::kDaAdvert, msg::kMulticastSrvRqst};
}

void ServiceAgent::on_message(const Message& m) {
  if (m.type == msg::kDaAdvert) {
    da_heard(m.as<DaAdvert>().da);
  } else if (m.type == msg::kMulticastSrvRqst) {
    // Peer-to-peer mode: answer matching multicast requests directly.
    const auto& rqst = m.as<SrvRqst>();
    for (const auto& [service, sd] : services_) {
      if (sd.service_type != rqst.service_type) continue;
      Message reply;
      reply.src = id();
      reply.dst = rqst.ua;
      reply.type = msg::kSrvRply;
      reply.klass =
          sd.version > 1 ? MessageClass::kUpdate : MessageClass::kDiscovery;
      reply.bytes = 48 + discovery::wire_size(sd);
      reply.payload = SrvRply{true, sd};
      network().send(reply);
    }
  } else if (m.type == msg::kSrvAck) {
    // Lease granted; nothing further to do (renewal timer re-registers).
  }
}

// ---------------------------------------------------------------------
// UserAgent
// ---------------------------------------------------------------------

UserAgent::UserAgent(sim::Simulator& simulator, net::Network& network,
                     NodeId id, std::string service_type, SlpConfig config,
                     discovery::ConsistencyObserver* observer)
    : Node(simulator, network, id, "slp-ua"),
      config_(config),
      observer_(observer),
      service_type_(std::move(service_type)) {
  if (observer_ != nullptr) observer_->track_user(id);
}

void UserAgent::start() {
  poll();
  SDCM_PROFILE_TIMER(poll_timer_, "timer.slp.poll");
  poll_timer_.start(simulator(), config_.poll_period, config_.poll_period,
                    [this] { poll(); });
}

void UserAgent::poll() {
  Message m;
  m.src = id();
  m.klass = MessageClass::kDiscovery;
  m.bytes = 64;
  m.payload = SrvRqst{id(), service_type_};
  if (da_ != sim::kNoNode) {
    // Registry mode: cheap unicast request to the DA.
    m.dst = da_;
    m.type = msg::kSrvRqst;
    network().send(m);
  } else {
    // Peer-to-peer fallback: multicast, answered by SAs directly - the
    // hybrid resilience against Registry failure.
    m.type = msg::kMulticastSrvRqst;
    network().multicast(m, 1);
  }
}

void UserAgent::da_heard(NodeId da) {
  const bool fresh = da_ == sim::kNoNode;
  da_ = da;
  simulator().reschedule_in(da_timeout_, config_.advert_timeout, [this] {
    SDCM_PROFILE_SITE(simulator(), "timer.slp.da_timeout");
    drop_da();
  });
  if (fresh) {
    trace(sim::TraceCategory::kDiscovery, tag::kDaDiscovered,
          sim::TraceDetail{}.peer(da));
  }
}

void UserAgent::drop_da() {
  trace(sim::TraceCategory::kDiscovery, tag::kDaDropped);
  da_ = sim::kNoNode;
  da_timeout_ = sim::kInvalidEventId;
}

std::optional<std::vector<net::MessageType>> UserAgent::multicast_interests()
    const {
  return std::vector<net::MessageType>{msg::kDaAdvert};
}

void UserAgent::on_message(const Message& m) {
  if (m.type == msg::kDaAdvert) {
    da_heard(m.as<DaAdvert>().da);
  } else if (m.type == msg::kSrvRply) {
    const auto& rply = m.as<SrvRply>();
    if (!rply.found || rply.sd.service_type != service_type_) return;
    if (sd_.has_value() && sd_->version >= rply.sd.version) return;
    sd_ = rply.sd;
    trace(sim::TraceCategory::kUpdate, tag::kDescriptionStored,
          sim::TraceDetail{}.version(rply.sd.version));
    if (observer_ != nullptr) {
      observer_->user_version(id(), rply.sd.version, now());
      observer_->user_reached(id(), rply.sd.version, now());
    }
  }
}

}  // namespace sdcm::slp
