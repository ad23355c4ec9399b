#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sdcm/net/message_type.hpp"
#include "sdcm/discovery/service.hpp"
#include "sdcm/frodo/device.hpp"
#include "sdcm/sim/time.hpp"
#include "sdcm/sim/trace.hpp"

/// Message payloads of the FRODO model. All transport is UDP (Table 3);
/// reliability is protocol-level: *selected* messages carry a token and
/// are acknowledged and retransmitted (SRN1/SRC1).
namespace sdcm::frodo {

using discovery::NodeId;
using discovery::ServiceId;
using discovery::ServiceVersion;

/// Correlates an acknowledged message with its ack. 0 = no ack expected.
using Token = std::uint64_t;

namespace msg {
// Discovery & election
inline const net::MessageType kNodeAnnounce = net::MessageType::intern("frodo.node_announce");
inline const net::MessageType kCentralAnnounce = net::MessageType::intern("frodo.central_announce");
inline const net::MessageType kRegistryHere = net::MessageType::intern("frodo.registry_here");
inline const net::MessageType kBackupAssign = net::MessageType::intern("frodo.backup_assign");
inline const net::MessageType kBackupSync = net::MessageType::intern("frodo.backup_sync");
// Registration (Manager <-> Central)
inline const net::MessageType kRegister = net::MessageType::intern("frodo.register");
inline const net::MessageType kRegisterAck = net::MessageType::intern("frodo.register_ack");
inline const net::MessageType kRenewRegistration = net::MessageType::intern("frodo.renew_registration");
inline const net::MessageType kReregisterRequest = net::MessageType::intern("frodo.reregister_request");
// Search (User -> Central / Manager)
inline const net::MessageType kServiceSearch = net::MessageType::intern("frodo.service_search");
inline const net::MessageType kMulticastSearch = net::MessageType::intern("frodo.multicast_search");
inline const net::MessageType kServiceFound = net::MessageType::intern("frodo.service_found");
// Subscription (User <-> Central or 300D Manager)
inline const net::MessageType kSubscriptionRequest = net::MessageType::intern("frodo.subscription_request");
inline const net::MessageType kSubscribeAck = net::MessageType::intern("frodo.subscribe_ack");
inline const net::MessageType kSubscriptionRenew = net::MessageType::intern("frodo.subscription_renew");
inline const net::MessageType kResubscribeRequest = net::MessageType::intern("frodo.resubscribe_request");
// Updates
inline const net::MessageType kServiceUpdate = net::MessageType::intern("frodo.service_update");
inline const net::MessageType kUpdateAck = net::MessageType::intern("frodo.update_ack");
inline const net::MessageType kClientUpdateAck = net::MessageType::intern("frodo.client_update_ack");
inline const net::MessageType kServicePurged = net::MessageType::intern("frodo.service_purged");
// PR1 interest notification
inline const net::MessageType kNotificationRequest = net::MessageType::intern("frodo.notification_request");
inline const net::MessageType kServiceNotification = net::MessageType::intern("frodo.service_notification");
inline const net::MessageType kNotificationAck = net::MessageType::intern("frodo.notification_ack");
// SRC2 history recovery (critical updates)
inline const net::MessageType kUpdateRequest = net::MessageType::intern("frodo.update_request");
inline const net::MessageType kUpdateHistory = net::MessageType::intern("frodo.update_history");
// Generic control-plane ack
inline const net::MessageType kAck = net::MessageType::intern("frodo.ack");
}  // namespace msg

/// Trace tags of the FRODO model and how each renders its detail.
namespace tag {
namespace slot = sim::trace_slot;
using sim::TraceRole;
using sim::TraceTag;
// Discovery, registration and election
inline const TraceTag kManagerDepart{"frodo.manager.depart", {}};
inline const TraceTag kRegisterTx{"frodo.register.tx", {slot::kService, slot::kVersion}};
inline const TraceTag kRegisterFailed{"frodo.register.failed", {slot::kService}};
inline const TraceTag kRegistered{"frodo.registered", {slot::kService, slot::kVersion, slot::kFlag}};
inline const TraceTag kManagerDiscovered{"frodo.manager.discovered", {slot::peer("manager"), slot::reason("class")}};
inline const TraceTag kManagerPurged{"frodo.manager.purged", {slot::kFlag}, TraceRole::kVersionReset};
inline const TraceTag kCentralDiscovered{"frodo.central.discovered", {slot::peer("central")}};
inline const TraceTag kCentralSwitched{"frodo.central.switched", {slot::peer("central"), slot::kEpoch}};
inline const TraceTag kCentralLost{"frodo.central.lost", {slot::peer("central")}};
inline const TraceTag kCentralElected{"frodo.central.elected", {slot::kEpoch}};
inline const TraceTag kCentralDemoted{"frodo.central.demoted", {slot::peer("to")}};
inline const TraceTag kBackupTakeover{"frodo.backup.takeover", {slot::duration("silence")}};
inline const TraceTag kStandbyReelection{"frodo.standby.reelection", {}};
inline const TraceTag kBackupAssigned{"frodo.backup.assigned", {slot::peer("backup")}};
inline const TraceTag kBackupAccepted{"frodo.backup.accepted", {slot::peer("central")}};
inline const TraceTag kRegistrationPurged{"frodo.registration.purged", {slot::kService}};
// Subscription
inline const TraceTag kSubscribeTx{"frodo.subscribe.tx", {slot::peer("to")}};
inline const TraceTag kSubscribed{"frodo.subscribed", {slot::peer("user"), slot::reason("mode")}};
inline const TraceTag kResubscribing{"frodo.resubscribing", {}};
inline const TraceTag kResubscribeRequest{"frodo.resubscribe.request", {slot::peer("user")}};
inline const TraceTag kSubscriberPurged{"frodo.subscriber.purged", {slot::peer("user"), slot::reason("reason")}};
inline const TraceTag kSubscriptionPurged{"frodo.subscription.purged", {slot::peer("user")}};
// Updates and recovery
inline const TraceTag kServiceChanged{"frodo.service_changed", {slot::kService, slot::kVersion}, TraceRole::kServiceChanged};
inline const TraceTag kUpdateTx{"frodo.update.tx", {slot::peer("user"), slot::kVersion, slot::kFlag}};
inline const TraceTag kUpdateStored{"frodo.update.stored", {slot::kService, slot::kVersion}};
inline const TraceTag kUpdateCentralRetry{"frodo.update.central_retry", {slot::kService}};
inline const TraceTag kUpdateCentralFailed{"frodo.update.central_failed", {slot::kService}};
inline const TraceTag kNotifyTx{"frodo.notify.tx", {slot::peer("user"), slot::kVersion}};
inline const TraceTag kSrn2Marked{"frodo.srn2.marked", {slot::peer("user")}};
inline const TraceTag kSrn2Retry{"frodo.srn2.retry", {slot::peer("user")}};
inline const TraceTag kDescriptionStored{"frodo.description.stored", {slot::kVersion}};
inline const TraceTag kInvalidationFetch{"frodo.invalidation.fetch", {slot::kFromVersion}};
inline const TraceTag kSrc2Request{"frodo.src2.request", {slot::kFromVersion}};
}  // namespace tag

/// Reason and flag words carried by FRODO trace records.
namespace reason {
inline const sim::Atom kNew = sim::Atom::intern("new");
inline const sim::Atom kRefresh = sim::Atom::intern("refresh");
inline const sim::Atom kInvalidation = sim::Atom::intern("invalidation");
inline const sim::Atom kTwoParty = sim::Atom::intern("2-party");
inline const sim::Atom kThreeParty = sim::Atom::intern("3-party");
inline const sim::Atom kExpired = sim::Atom::intern("expired");
inline const sim::Atom kDepart = sim::Atom::intern("depart");
inline const sim::Atom kRegistryPurged = sim::Atom::intern("registry-purged");
}  // namespace reason

struct Matching {
  std::string device_type;
  std::string service_type;

  [[nodiscard]] bool matches(const discovery::ServiceDescription& sd) const {
    return device_type == sd.device_type && service_type == sd.service_type;
  }
};

struct NodeAnnounce {
  NodeId node = sim::kNoNode;
  DeviceClass device_class = DeviceClass::k3D;
  Capability capability = 0;
  bool registry_capable = false;
};

struct CentralAnnounce {
  NodeId central = sim::kNoNode;
  Capability capability = 0;
  /// Bumped on every takeover; clients and rival Centrals follow the
  /// highest epoch (ties broken by capability then id).
  std::uint64_t epoch = 0;
};

struct RegistryHere {
  NodeId central = sim::kNoNode;
  std::uint64_t epoch = 0;
};

struct BackupAssign {
  Token token = 0;
  NodeId central = sim::kNoNode;
  std::uint64_t epoch = 0;
};

/// Full-state snapshot pushed to the Backup on every mutation; the Backup
/// takes over with this state (Section 3: "a Backup is appointed by the
/// Central to store configuration information").
struct BackupSync {
  struct RegistrationRecord {
    discovery::ServiceDescription sd;
    DeviceClass manager_class = DeviceClass::k3D;
    bool critical = false;
  };
  struct SubscriptionRecord {
    ServiceId service = 0;
    NodeId user = sim::kNoNode;
  };
  struct InterestRecord {
    NodeId user = sim::kNoNode;
    Matching matching;
  };
  std::vector<RegistrationRecord> registrations;
  std::vector<SubscriptionRecord> subscriptions;
  std::vector<InterestRecord> interests;
};

struct Register {
  Token token = 0;
  NodeId manager = sim::kNoNode;
  DeviceClass manager_class = DeviceClass::k3D;
  discovery::ServiceDescription sd;
  bool critical = false;
};

struct RegisterAck {
  Token token = 0;
  ServiceId service = 0;
  sim::SimDuration lease = 0;
};

struct RenewRegistration {
  Token token = 0;
  NodeId manager = sim::kNoNode;
  ServiceId service = 0;
};

struct ReregisterRequest {
  Token token = 0;  ///< settles the renewal this replaces
  ServiceId service = 0;
};

struct ServiceSearch {
  NodeId user = sim::kNoNode;
  Matching matching;
};

struct MulticastSearch {
  NodeId user = sim::kNoNode;
  Matching matching;
};

struct ServiceFound {
  bool found = false;
  discovery::ServiceDescription sd;
  DeviceClass manager_class = DeviceClass::k3D;
};

struct SubscriptionRequest {
  Token token = 0;
  NodeId user = sim::kNoNode;
  ServiceId service = 0;
  /// Version the User already holds; the (re)subscription ack carries the
  /// current description when it is newer - the PR3/PR4 recovery payload.
  ServiceVersion known_version = 0;
};

struct SubscribeAck {
  Token token = 0;
  ServiceId service = 0;
  sim::SimDuration lease = 0;
  /// Present iff the lessor's version is newer than known_version.
  std::optional<discovery::ServiceDescription> sd;
};

struct SubscriptionRenew {
  /// Always fire-and-forget (Figure 1 shows no ack); the token is kept in
  /// the payload so a ResubscribeRequest can reference the renewal it
  /// answers, but is 0 in normal operation.
  Token token = 0;
  NodeId user = sim::kNoNode;
  ServiceId service = 0;
};

struct ResubscribeRequest {
  Token token = 0;  ///< settles the renewal this replaces (may be 0)
  ServiceId service = 0;
};

struct ServiceUpdate {
  Token token = 0;
  /// Invalidation mode: only id / manager / version are meaningful - the
  /// User must fetch the body (UpdateRequest -> UpdateHistory).
  discovery::ServiceDescription sd;
  bool critical = false;
  bool invalidation = false;
};

struct Ack {
  Token token = 0;
};

struct ServicePurged {
  ServiceId service = 0;
};

struct NotificationRequest {
  NodeId user = sim::kNoNode;
  Matching matching;
  /// Immediate notification only when the Registry holds something newer
  /// (FRODO notifies on *existing* registrations, fixing Jini's anomaly,
  /// without duplicating what the User already has).
  ServiceVersion known_version = 0;
};

struct ServiceNotification {
  Token token = 0;
  discovery::ServiceDescription sd;
  DeviceClass manager_class = DeviceClass::k3D;
};

struct UpdateRequest {
  NodeId user = sim::kNoNode;
  ServiceId service = 0;
  /// First missed version (SRC2: the receiver monitors sequence numbers
  /// and requests the gap).
  ServiceVersion from_version = 0;
};

struct UpdateHistory {
  ServiceId service = 0;
  /// Missed descriptions in version order.
  std::vector<discovery::ServiceDescription> versions;
};

}  // namespace sdcm::frodo
