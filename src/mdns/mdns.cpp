#include "sdcm/mdns/mdns.hpp"

#include <stdexcept>
#include <utility>

#include "sdcm/obs/profile_site.hpp"

namespace sdcm::mdns {

using discovery::ServiceDescription;
using net::Message;
using net::MessageClass;

discovery::ProtocolSpec protocol_spec() noexcept {
  discovery::ProtocolSpec spec;
  spec.announce = discovery::AnnouncePolicy::kPeerJittered;
  spec.subscription = discovery::SubscriptionStyle::kNone;
  spec.cache = discovery::CachePolicy::kLeasedTtl;
  spec.leased = false;  // TTLs age caches; no grant/renew handshake
  spec.recovery = {discovery::RecoveryTechnique::kPR5};
  spec.transport = discovery::TransportChoice::kUdpOnly;
  spec.guarantees_convergence = true;  // announcements are anti-entropy
  return spec;
}

MdnsResponder::MdnsResponder(sim::Simulator& simulator, net::Network& network,
                             NodeId id, MdnsConfig config,
                             discovery::ConsistencyObserver* observer)
    : Node(simulator, network, id, "mdns-responder"),
      config_(config),
      observer_(observer) {}

void MdnsResponder::add_service(ServiceDescription sd) {
  sd.manager = this->id();
  const auto service = sd.id;
  services_.insert_or_assign(service, std::move(sd));
}

void MdnsResponder::start() {
  running_ = true;
  announce_all();
  SDCM_PROFILE_TIMER(announce_timer_, "timer.mdns.announce");
  announce_timer_.start(
      simulator(), jitter(), [this] { announce_all(); },
      [this] { return jitter(); });
}

void MdnsResponder::shutdown() {
  running_ = false;
  announce_timer_.stop();
  for (const auto& [service, sd] : services_) {
    auto m = make_message(msg::kGoodbye, MessageClass::kDiscovery);
    m.payload = Goodbye{id(), service};
    send_multicast(m);
  }
  trace(sim::TraceCategory::kDiscovery, tag::kShutdown);
}

void MdnsResponder::depart() {
  running_ = false;
  announce_timer_.stop();
  trace(sim::TraceCategory::kDiscovery, tag::kResponderDepart);
}

void MdnsResponder::announce_now() {
  if (running_) announce_all();
}

sim::SimDuration MdnsResponder::jitter() {
  return rng().uniform_time(config_.announce_min, config_.announce_max);
}

void MdnsResponder::announce_all() {
  for (const auto& [service, sd] : services_) {
    announce_service(sd, MessageClass::kDiscovery, 1);
  }
}

void MdnsResponder::announce_service(const ServiceDescription& sd,
                                     MessageClass klass, int copies) {
  auto m = make_message(msg::kAnnounce, klass);
  m.bytes = 48 + discovery::wire_size(sd);
  m.payload = Announce{id(), sd};
  if (klass == MessageClass::kUpdate) {
    m.span = trace(sim::TraceCategory::kUpdate, tag::kUpdateTx,
                   sim::TraceDetail{}.service(sd.id).version(sd.version));
  } else {
    trace(sim::TraceCategory::kDiscovery, tag::kAnnounceTx,
          sim::TraceDetail{}.service(sd.id).version(sd.version));
  }
  send_multicast(m, copies);
}

const ServiceDescription& MdnsResponder::service(ServiceId service) const {
  const auto it = services_.find(service);
  if (it == services_.end()) throw std::out_of_range("unknown service");
  return it->second;
}

void MdnsResponder::change_service(ServiceId service) {
  change_service(service, {});
}

void MdnsResponder::change_service(ServiceId service,
                                   const discovery::AttributeList& updates) {
  const auto it = services_.find(service);
  if (it == services_.end()) throw std::out_of_range("unknown service");
  for (const auto& [key, value] : updates) {
    it->second.attributes[key] = value;
  }
  auto& sd = it->second;
  ++sd.version;
  const sim::SpanId change_span =
      trace(sim::TraceCategory::kUpdate, tag::kServiceChanged,
            sim::TraceDetail{}.service(sd.id).version(sd.version));
  // The repeated update announcements descend from this change record.
  sim::SpanScope change_scope(simulator().trace(), change_span);
  if (observer_ != nullptr) observer_->service_changed(sd.version, now());
  // RFC 6762 Section 8.3: announce the updated record several times back
  // to back. All repeats leave at the change instant, so the model's m'
  // is exactly update_repeats, independent of the user population - this
  // is the decentralized design's whole efficiency argument.
  announce_service(sd, MessageClass::kUpdate, config_.update_repeats);
}

std::optional<std::vector<net::MessageType>>
MdnsResponder::multicast_interests() const {
  return std::vector<net::MessageType>{msg::kQuery};
}

void MdnsResponder::on_message(const Message& m) {
  if (!running_) return;
  if (m.type != msg::kQuery) return;
  const auto& query = m.as<Query>();
  for (const auto& [service, sd] : services_) {
    if (sd.device_type != query.device_type ||
        sd.service_type != query.service_type) {
      continue;
    }
    // Shared response (RFC 6762 Section 5.4): answer a multicast query
    // with a multicast announcement so every Listener benefits.
    announce_service(sd, MessageClass::kDiscovery, 1);
  }
}

MdnsListener::MdnsListener(sim::Simulator& simulator, net::Network& network,
                           NodeId id, Interest interest, MdnsConfig config,
                           discovery::ConsistencyObserver* observer)
    : Node(simulator, network, id, "mdns-listener"),
      interest_(std::move(interest)),
      config_(config),
      observer_(observer) {
  if (observer_ != nullptr) observer_->track_user(id);
}

void MdnsListener::start() {
  send_query();
  SDCM_PROFILE_TIMER(query_timer_, "timer.mdns.query");
  query_timer_.start(simulator(), config_.query_period, config_.query_period,
                     [this] {
                       if (!has_record()) send_query();
                     });
}

void MdnsListener::depart() {
  trace(sim::TraceCategory::kDiscovery, tag::kListenerDepart);
  sd_.reset();
  if (ttl_expiry_ != sim::kInvalidEventId) {
    simulator().cancel(ttl_expiry_);
    ttl_expiry_ = sim::kInvalidEventId;
  }
  query_timer_.stop();
}

void MdnsListener::send_query() {
  auto m = make_message(msg::kQuery, MessageClass::kDiscovery);
  m.payload = Query{id(), interest_.device_type, interest_.service_type};
  trace(sim::TraceCategory::kDiscovery, tag::kQueryTx);
  send_multicast(m);
}

std::optional<std::vector<net::MessageType>>
MdnsListener::multicast_interests() const {
  return std::vector<net::MessageType>{msg::kAnnounce, msg::kGoodbye};
}

void MdnsListener::on_message(const Message& m) {
  if (m.type == msg::kAnnounce) {
    handle_announce(m);
  } else if (m.type == msg::kGoodbye) {
    const auto& bye = m.as<Goodbye>();
    if (sd_.has_value() && bye.responder == sd_->manager) {
      purge(reason::kGoodbye);
    }
  }
}

void MdnsListener::handle_announce(const Message& m) {
  const auto& announce = m.as<Announce>();
  if (!interest_.matches(announce.sd.device_type, announce.sd.service_type)) {
    return;
  }
  if (sd_.has_value() && announce.sd.manager != sd_->manager) {
    return;  // single-provider scenario; ignore other Responders
  }
  if (!sd_.has_value() || announce.sd.version > sd_->version) {
    sd_ = announce.sd;
    trace(sim::TraceCategory::kUpdate, tag::kRecordStored,
          sim::TraceDetail{}.service(sd_->id).version(sd_->version));
    if (observer_ != nullptr) {
      observer_->user_version(id(), sd_->version, now());
      observer_->user_reached(id(), sd_->version, now());
    }
  }
  // Any matching announcement from the cached Responder refreshes the
  // TTL, including same-version periodic ones.
  refresh_ttl();
}

void MdnsListener::refresh_ttl() {
  simulator().reschedule_in(ttl_expiry_, config_.cache_ttl, [this] {
    SDCM_PROFILE_SITE(simulator(), "timer.mdns.ttl_expiry");
    ttl_expiry_ = sim::kInvalidEventId;
    purge(reason::kTtlExpired);
  });
}

void MdnsListener::purge(sim::Atom why) {
  trace(sim::TraceCategory::kDiscovery, tag::kRecordPurged,
        sim::TraceDetail{}.reason(why));
  sd_.reset();
  if (ttl_expiry_ != sim::kInvalidEventId) {
    simulator().cancel(ttl_expiry_);
    ttl_expiry_ = sim::kInvalidEventId;
  }
  // PR5: rediscover via multicast query; the query timer keeps retrying
  // until a record is cached again.
  send_query();
}

}  // namespace sdcm::mdns
