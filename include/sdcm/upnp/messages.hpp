#pragma once

#include <string>

#include "sdcm/net/message_type.hpp"
#include "sdcm/discovery/service.hpp"
#include "sdcm/sim/time.hpp"
#include "sdcm/sim/trace.hpp"

/// Message payloads of the UPnP model. The model follows the NIST
/// structure the paper benchmarks against (Section 5): SSDP-style
/// multicast discovery (alive announcements, M-SEARCH queries, unicast
/// UDP search responses) and HTTP/GENA-style unicast over the TCP model
/// (description fetch, subscription, renewal, event notification).
///
/// UPnP notification is an *invalidation*: the NOTIFY only says the
/// service changed; the User must fetch the description afterwards
/// (Section 4.2 mechanism (1)).
namespace sdcm::upnp {

using discovery::NodeId;
using discovery::ServiceId;
using discovery::ServiceVersion;

namespace msg {
/// ssdp:alive, multicast by the Manager every announce period.
inline const net::MessageType kAlive = net::MessageType::intern("upnp.alive");
/// ssdp:byebye, multicast on graceful shutdown.
inline const net::MessageType kByeBye = net::MessageType::intern("upnp.byebye");
/// M-SEARCH multicast query from a User.
inline const net::MessageType kMSearch = net::MessageType::intern("upnp.msearch");
/// Unicast UDP response to a matching M-SEARCH.
inline const net::MessageType kSearchResponse = net::MessageType::intern("upnp.search_response");
/// HTTP GET of the service description (TCP).
inline const net::MessageType kGetDescription = net::MessageType::intern("upnp.get");
/// Response carrying the full service description (TCP).
inline const net::MessageType kDescription = net::MessageType::intern("upnp.get_response");
/// GENA SUBSCRIBE (TCP).
inline const net::MessageType kSubscribe = net::MessageType::intern("upnp.subscribe");
inline const net::MessageType kSubscribeResponse = net::MessageType::intern("upnp.subscribe_response");
/// GENA subscription renewal (TCP).
inline const net::MessageType kRenew = net::MessageType::intern("upnp.renew");
inline const net::MessageType kRenewResponse = net::MessageType::intern("upnp.renew_response");
/// GENA NOTIFY: invalidation only - "the service changed" (TCP).
inline const net::MessageType kNotify = net::MessageType::intern("upnp.notify");
}  // namespace msg

/// Trace tags of the UPnP model and how each renders its detail.
namespace tag {
namespace slot = sim::trace_slot;
using sim::TraceRole;
using sim::TraceTag;
// Manager
inline const TraceTag kShutdown{"upnp.shutdown", {}};
inline const TraceTag kManagerDepart{"upnp.manager.depart", {}};
inline const TraceTag kAnnounce{"upnp.announce", {}};
inline const TraceTag kServiceChanged{"upnp.service_changed", {slot::kService, slot::kVersion}, TraceRole::kServiceChanged};
inline const TraceTag kNotifyTx{"upnp.notify.tx", {slot::peer("user")}, TraceRole::kChangeNotification};
inline const TraceTag kSubscriberPurged{"upnp.subscriber.purged", {slot::peer("user"), slot::reason("reason")}};
inline const TraceTag kSubscribed{"upnp.subscribed", {slot::peer("user")}};
inline const TraceTag kRenewUnknown{"upnp.renew.unknown", {slot::peer("user")}};
// User
inline const TraceTag kUserDepart{"upnp.user.depart", {}};
inline const TraceTag kMSearchTx{"upnp.msearch.tx", {}};
inline const TraceTag kManagerDiscovered{"upnp.manager.discovered", {slot::peer("manager")}};
inline const TraceTag kManagerPurged{"upnp.manager.purged", {slot::kFlag}};
inline const TraceTag kGetTx{"upnp.get.tx", {}};
inline const TraceTag kGetRex{"upnp.get.rex", {}};
inline const TraceTag kDescriptionStored{"upnp.description.stored", {slot::kVersion}};
inline const TraceTag kSubscribeTx{"upnp.subscribe.tx", {}};
inline const TraceTag kSubscriptionExpired{"upnp.subscription.expired", {}};
inline const TraceTag kRenewTx{"upnp.renew.tx", {}};
inline const TraceTag kRenewRejected{"upnp.renew.rejected", {}};
inline const TraceTag kNotifyRx{"upnp.notify.rx", {slot::kVersion}};
}  // namespace tag

/// Reason words carried by UPnP trace records.
namespace reason {
inline const sim::Atom kNotifyRex = sim::Atom::intern("notify-rex");
inline const sim::Atom kExpired = sim::Atom::intern("expired");
inline const sim::Atom kByeBye = sim::Atom::intern("byebye");
inline const sim::Atom kCacheExpired = sim::Atom::intern("cache-expired");
}  // namespace reason

struct Alive {
  NodeId manager = sim::kNoNode;
  ServiceId service = 0;
  std::string device_type;
  std::string service_type;
};

struct ByeBye {
  NodeId manager = sim::kNoNode;
  ServiceId service = 0;
};

struct MSearch {
  NodeId user = sim::kNoNode;
  std::string device_type;
  std::string service_type;
};

struct SearchResponse {
  NodeId manager = sim::kNoNode;
  ServiceId service = 0;
  std::string device_type;
  std::string service_type;
};

struct GetDescription {
  NodeId user = sim::kNoNode;
  ServiceId service = 0;
};

struct Description {
  discovery::ServiceDescription sd;
};

struct Subscribe {
  NodeId user = sim::kNoNode;
  ServiceId service = 0;
};

struct SubscribeResponse {
  ServiceId service = 0;
  bool ok = false;
  sim::SimDuration lease = 0;
};

struct Renew {
  NodeId user = sim::kNoNode;
  ServiceId service = 0;
};

struct RenewResponse {
  ServiceId service = 0;
  /// false: the Manager does not know this subscription (it purged the
  /// User); the User must resubscribe - recovery technique PR4.
  bool ok = false;
};

struct Notify {
  ServiceId service = 0;
  /// Version the Manager moved to. The User does NOT become consistent on
  /// receipt - this is an invalidation; consistency requires the follow-up
  /// description fetch.
  ServiceVersion version = 0;
};

}  // namespace sdcm::upnp
