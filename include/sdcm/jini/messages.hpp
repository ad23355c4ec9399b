#pragma once

#include <string>
#include <vector>

#include "sdcm/net/message_type.hpp"
#include "sdcm/discovery/service.hpp"
#include "sdcm/sim/time.hpp"
#include "sdcm/sim/trace.hpp"

/// Message payloads of the Jini model (3-party subscription). Structure
/// follows the NIST model the paper reproduces: multicast announcement +
/// request discovery protocols, lookup-service registration with leases,
/// template-based lookup, and remote-event notification. All unicast
/// rides the TCP model (Table 3).
///
/// Jini notification carries the updated data (Section 4.2 mechanism (2)),
/// unlike UPnP's invalidation.
namespace sdcm::jini {

using discovery::NodeId;
using discovery::ServiceId;

namespace msg {
/// Multicast announcement from the lookup service, 6 copies every 120 s.
inline const net::MessageType kAnnounce = net::MessageType::intern("jini.announce");
/// Multicast discovery request from a joining Manager or User.
inline const net::MessageType kDiscoveryRequest = net::MessageType::intern("jini.discovery_request");
/// Unicast response from a lookup service to a discovery request.
inline const net::MessageType kDiscoveryResponse = net::MessageType::intern("jini.discovery_response");
/// Service registration / re-registration (carries the full SD - a
/// re-registration with a bumped version IS the update propagation).
inline const net::MessageType kRegister = net::MessageType::intern("jini.register");
inline const net::MessageType kRegisterResponse = net::MessageType::intern("jini.register_response");
inline const net::MessageType kRenewRegistration = net::MessageType::intern("jini.renew_registration");
inline const net::MessageType kRenewRegistrationResponse = net::MessageType::intern("jini.renew_registration_response");
/// Template-based query for matching services.
inline const net::MessageType kLookup = net::MessageType::intern("jini.lookup");
inline const net::MessageType kLookupResponse = net::MessageType::intern("jini.lookup_response");
/// Notification request (Jini event registration).
inline const net::MessageType kEventRegister = net::MessageType::intern("jini.event_register");
inline const net::MessageType kEventRegisterResponse = net::MessageType::intern("jini.event_register_response");
inline const net::MessageType kRenewEvent = net::MessageType::intern("jini.renew_event");
inline const net::MessageType kRenewEventResponse = net::MessageType::intern("jini.renew_event_response");
/// Remote event delivering the (re)registered service description.
inline const net::MessageType kRemoteEvent = net::MessageType::intern("jini.remote_event");
}  // namespace msg

/// Trace tags of the Jini model and how each renders its detail.
namespace tag {
namespace slot = sim::trace_slot;
using sim::TraceRole;
using sim::TraceTag;
// Lookup service
inline const TraceTag kAnnounce{"jini.announce", {}};
inline const TraceTag kRegistered{"jini.registered", {slot::kService, slot::kVersion, slot::kFlag}};
inline const TraceTag kRegistrationPurged{"jini.registration.purged", {slot::kService}};
inline const TraceTag kEventRegistered{"jini.event_registered", {slot::peer("user")}};
inline const TraceTag kRenewEventUnknown{"jini.renew_event.unknown", {slot::peer("user")}};
inline const TraceTag kEventTx{"jini.event.tx", {slot::peer("user"), slot::kVersion}};
inline const TraceTag kEventRex{"jini.event.rex", {slot::peer("user")}};
inline const TraceTag kEventPurged{"jini.event.purged", {slot::peer("user")}};
// Manager and User
inline const TraceTag kRegistryDiscovered{"jini.registry.discovered", {slot::peer("registry")}};
inline const TraceTag kRegistryPurged{"jini.registry.purged", {slot::peer("registry"), slot::reason("reason")}};
inline const TraceTag kManagerDepart{"jini.manager.depart", {}};
inline const TraceTag kUserDepart{"jini.user.depart", {}};
inline const TraceTag kServiceChanged{"jini.service_changed", {slot::kService, slot::kVersion}, TraceRole::kServiceChanged};
inline const TraceTag kRegisterTx{"jini.register.tx", {slot::peer("registry"), slot::kVersion}};
inline const TraceTag kRenewLapsed{"jini.renew.lapsed", {slot::peer("registry")}};
inline const TraceTag kLookupTx{"jini.lookup.tx", {slot::peer("registry")}};
inline const TraceTag kEventLapsed{"jini.event.lapsed", {slot::peer("registry")}};
inline const TraceTag kEventRx{"jini.event.rx", {slot::kVersion}};
inline const TraceTag kDescriptionStored{"jini.description.stored", {slot::kVersion}};
}  // namespace tag

/// Reason and flag words carried by Jini trace records.
namespace reason {
inline const sim::Atom kNew = sim::Atom::intern("new");
inline const sim::Atom kRenewal = sim::Atom::intern("renewal");
inline const sim::Atom kSilent = sim::Atom::intern("silent");
inline const sim::Atom kDepart = sim::Atom::intern("depart");
inline const sim::Atom kRegisterRex = sim::Atom::intern("register-rex");
inline const sim::Atom kRenewRex = sim::Atom::intern("renew-rex");
inline const sim::Atom kEventRegisterRex = sim::Atom::intern("event-register-rex");
inline const sim::Atom kLookupRex = sim::Atom::intern("lookup-rex");
inline const sim::Atom kRenewEventRex = sim::Atom::intern("renew-event-rex");
inline const sim::Atom kEventLapsed = sim::Atom::intern("event-lapsed");
}  // namespace reason

/// Matching template for lookups and event registrations.
struct Template {
  std::string device_type;
  std::string service_type;

  [[nodiscard]] bool matches(const discovery::ServiceDescription& sd) const {
    return device_type == sd.device_type && service_type == sd.service_type;
  }
};

struct Announce {
  NodeId registry = sim::kNoNode;
};

struct DiscoveryRequest {
  NodeId node = sim::kNoNode;
};

struct DiscoveryResponse {
  NodeId registry = sim::kNoNode;
};

struct Register {
  NodeId manager = sim::kNoNode;
  discovery::ServiceDescription sd;
};

struct RegisterResponse {
  ServiceId service = 0;
  bool ok = false;
  sim::SimDuration lease = 0;
};

struct RenewRegistration {
  NodeId manager = sim::kNoNode;
  ServiceId service = 0;
};

struct RenewRegistrationResponse {
  ServiceId service = 0;
  /// false: the lookup service no longer holds the registration; the
  /// Manager must re-register (which, with a changed SD, is PR1).
  bool ok = false;
};

struct Lookup {
  NodeId user = sim::kNoNode;
  Template tmpl;
};

struct LookupResponse {
  std::vector<discovery::ServiceDescription> matches;
};

struct EventRegister {
  NodeId user = sim::kNoNode;
  Template tmpl;
};

struct EventRegisterResponse {
  bool ok = false;
  sim::SimDuration lease = 0;
};

struct RenewEvent {
  NodeId user = sim::kNoNode;
};

struct RenewEventResponse {
  /// false: unknown event lease - the NIST-reported Jini behaviour is an
  /// error reply that forces the User to redo discovery, notification
  /// request and query (PR3 feeding PR1 + PR2).
  bool ok = false;
};

struct RemoteEvent {
  discovery::ServiceDescription sd;
};

}  // namespace sdcm::jini
