#pragma once

// SLP (Service Location Protocol, RFC 2608) model - the *hybrid*
// architecture the paper's Section 1 groups with FRODO: "a hybrid of
// these two architectures can be implemented to allow the protocol to be
// more resilient against failure on the Registry, while reducing network
// traffic (e.g., SLP and FRODO)."
//
// Entities: Service Agents (SA, the paper's Manager), User Agents (UA,
// the User) and an optional Directory Agent (DA, the Registry). With a
// DA present, SAs register there and UAs unicast their SrvRqsts to it
// (registry mode); when no DA is known - never deployed, or silent past
// its advert timeout - both fall back to multicast SrvRqst answered by
// the SAs directly (peer-to-peer mode). That failover is the hybrid
// resilience argument.
//
// Consistency maintenance: SLP has no update notification (no CM1);
// Section 4.2 lists it among the protocols where "polling is implemented
// by requiring the User to query the service periodically" - so the UA's
// only freshness mechanism is its periodic SrvRqst (CM2).
//
// This module is an extension beyond the paper's five evaluated systems;
// it is exercised by tests/slp and the sdcm_paper row "SLP hybrid"
// (bench/paper.cpp).

#include <map>
#include <optional>
#include <string>

#include "sdcm/net/message_type.hpp"
#include "sdcm/discovery/node.hpp"
#include "sdcm/discovery/timing.hpp"
#include "sdcm/discovery/observer.hpp"
#include "sdcm/discovery/service.hpp"
#include "sdcm/sim/simulator.hpp"
#include "sdcm/sim/trace.hpp"

namespace sdcm::slp {

using discovery::NodeId;
using discovery::ServiceId;

namespace msg {
inline const net::MessageType kDaAdvert = net::MessageType::intern("slp.daadvert");
inline const net::MessageType kSrvReg = net::MessageType::intern("slp.srvreg");
inline const net::MessageType kSrvAck = net::MessageType::intern("slp.srvack");
inline const net::MessageType kSrvRqst = net::MessageType::intern("slp.srvrqst");           // unicast
inline const net::MessageType kMulticastSrvRqst = net::MessageType::intern("slp.srvrqst.mc");
inline const net::MessageType kSrvRply = net::MessageType::intern("slp.srvrply");
}  // namespace msg

/// Trace tags of the SLP model and how each renders its detail.
namespace tag {
namespace slot = sim::trace_slot;
using sim::TraceRole;
using sim::TraceTag;
inline const TraceTag kServiceChanged{"slp.service_changed", {slot::kService, slot::kVersion}, TraceRole::kServiceChanged};
inline const TraceTag kRegistrationPurged{"slp.registration.purged", {slot::kService}};
inline const TraceTag kDaDiscovered{"slp.da.discovered", {slot::peer("da")}};
inline const TraceTag kDaDropped{"slp.da.dropped", {}};
inline const TraceTag kDescriptionStored{"slp.description.stored", {slot::kVersion}};
}  // namespace tag

/// SLP model parameters. The shared timing knobs live in the
/// discovery::TimingConfig base: `announce_period` is the DAAdvert
/// cadence (RFC 2608 defaults to minutes; we align with the study's
/// Registry cadences), and `poll_period` is the UA's polling - its only
/// consistency mechanism (CM2), so it defaults on here.
struct SlpConfig : discovery::TimingConfig {
  SlpConfig() noexcept {
    announce_period = sim::seconds(900);
    poll_period = sim::seconds(300);
  }

  /// A DA silent past this is dropped and agents fall back to multicast.
  sim::SimDuration advert_timeout = sim::seconds(2250);
};

struct DaAdvert {
  NodeId da = sim::kNoNode;
};

struct SrvReg {
  NodeId sa = sim::kNoNode;
  discovery::ServiceDescription sd;
};

struct SrvAck {
  ServiceId service = 0;
  sim::SimDuration lease = 0;
};

struct SrvRqst {
  NodeId ua = sim::kNoNode;
  std::string service_type;
};

struct SrvRply {
  bool found = false;
  discovery::ServiceDescription sd;
};

/// Directory Agent: leased registrations, DAAdverts, unicast SrvRqst
/// answering. No notification machinery whatsoever.
class DirectoryAgent : public discovery::Node {
 public:
  DirectoryAgent(sim::Simulator& simulator, net::Network& network, NodeId id,
                 SlpConfig config = {});
  void start() override;
  [[nodiscard]] bool has_registration(ServiceId service) const {
    return registrations_.contains(service);
  }

 private:
  void on_message(const net::Message& msg) override;
  [[nodiscard]] std::optional<std::vector<net::MessageType>>
  multicast_interests() const override;
  void purge(ServiceId service);

  struct Registration {
    discovery::ServiceDescription sd;
    sim::EventId expiry = sim::kInvalidEventId;
  };
  SlpConfig config_;
  std::map<ServiceId, Registration> registrations_;
  sim::PeriodicTimer advert_timer_;
};

/// Service Agent: registers with a discovered DA (re-registering on each
/// change and on lease renewal - re-registration IS SLP's only "update"
/// path), and answers multicast SrvRqsts directly when queried.
class ServiceAgent : public discovery::Node {
 public:
  ServiceAgent(sim::Simulator& simulator, net::Network& network, NodeId id,
               SlpConfig config = {},
               discovery::ConsistencyObserver* observer = nullptr);
  void add_service(discovery::ServiceDescription sd);
  void change_service(ServiceId service);
  void start() override;
  [[nodiscard]] bool has_da() const noexcept { return da_ != sim::kNoNode; }

 private:
  void on_message(const net::Message& msg) override;
  [[nodiscard]] std::optional<std::vector<net::MessageType>>
  multicast_interests() const override;
  void register_all();
  void register_service(ServiceId service);
  void da_heard(NodeId da);
  void drop_da();

  SlpConfig config_;
  discovery::ConsistencyObserver* observer_;
  std::map<ServiceId, discovery::ServiceDescription> services_;
  NodeId da_ = sim::kNoNode;
  sim::EventId da_timeout_ = sim::kInvalidEventId;
  sim::PeriodicTimer renew_timer_;
};

/// User Agent: polls on a fixed period - unicast SrvRqst to the DA when
/// one is known, multicast otherwise (the hybrid failover).
class UserAgent : public discovery::Node {
 public:
  UserAgent(sim::Simulator& simulator, net::Network& network, NodeId id,
            std::string service_type, SlpConfig config = {},
            discovery::ConsistencyObserver* observer = nullptr);
  void start() override;
  [[nodiscard]] const std::optional<discovery::ServiceDescription>& cached()
      const noexcept {
    return sd_;
  }
  [[nodiscard]] bool has_da() const noexcept { return da_ != sim::kNoNode; }

 private:
  void on_message(const net::Message& msg) override;
  [[nodiscard]] std::optional<std::vector<net::MessageType>>
  multicast_interests() const override;
  void poll();
  void da_heard(NodeId da);
  void drop_da();

  SlpConfig config_;
  discovery::ConsistencyObserver* observer_;
  std::string service_type_;
  std::optional<discovery::ServiceDescription> sd_;
  NodeId da_ = sim::kNoNode;
  sim::EventId da_timeout_ = sim::kInvalidEventId;
  sim::PeriodicTimer poll_timer_;
};

}  // namespace sdcm::slp
