#pragma once

// mDNS/DNS-SD-style fully decentralized discovery (RFC 6762/6763
// flavour, after the phoenix-discovery broadcast-mesh pattern): no
// Registry node at all. Every Responder (the paper's Manager) multicasts
// its full service records on a *jittered* period; Listeners (Users)
// cache records with a TTL, purge on expiry and fall back to multicast
// queries, which any matching Responder answers with a multicast
// announcement (shared responses, RFC 6762 Section 5.4).
//
// Consistency maintenance: a change bumps the record version and
// multicasts the updated record a few times back to back (RFC 6762
// Section 8.3's repeated announcements). Because the periodic
// announcements keep carrying the *full current record*, they double as
// anti-entropy repair - a Listener that missed the change burst during
// an outage converges on the next announcement it hears, so the
// protocol guarantees eventual consistency (unlike UPnP's
// invalidation-only GENA path). Cache aging is the PR5 technique: the
// Listener purges the silent Responder and rediscovers by query.
//
// This is the proof protocol for the protocol-behavior plugin layer: it
// is registered with the experiment harness as SystemModel::kMdns and
// runs the metrics + oracle + fuzz + tracing stack unchanged.

#include <map>
#include <optional>
#include <string>

#include "sdcm/net/message_type.hpp"
#include "sdcm/discovery/node.hpp"
#include "sdcm/discovery/observer.hpp"
#include "sdcm/discovery/protocol.hpp"
#include "sdcm/discovery/service.hpp"
#include "sdcm/sim/simulator.hpp"
#include "sdcm/sim/trace.hpp"

namespace sdcm::mdns {

using discovery::NodeId;
using discovery::ServiceId;

namespace msg {
inline const net::MessageType kAnnounce = net::MessageType::intern("mdns.announce");
inline const net::MessageType kQuery = net::MessageType::intern("mdns.query");
inline const net::MessageType kGoodbye = net::MessageType::intern("mdns.goodbye");
}  // namespace msg

/// Trace tags of the mDNS model and how each renders its detail.
namespace tag {
namespace slot = sim::trace_slot;
using sim::TraceRole;
using sim::TraceTag;
inline const TraceTag kShutdown{"mdns.shutdown", {}};
inline const TraceTag kResponderDepart{"mdns.responder.depart", {}};
inline const TraceTag kServiceChanged{"mdns.service_changed", {slot::kService, slot::kVersion}, TraceRole::kServiceChanged};
inline const TraceTag kUpdateTx{"mdns.update.tx", {slot::kService, slot::kVersion}};
inline const TraceTag kAnnounceTx{"mdns.announce.tx", {slot::kService, slot::kVersion}};
inline const TraceTag kListenerDepart{"mdns.listener.depart", {}};
inline const TraceTag kQueryTx{"mdns.query.tx", {}};
inline const TraceTag kRecordStored{"mdns.record.stored", {slot::kService, slot::kVersion}};
inline const TraceTag kRecordPurged{"mdns.record.purged", {slot::kFlag}};
}  // namespace tag

/// Reason words carried by mDNS trace records.
namespace reason {
inline const sim::Atom kGoodbye = sim::Atom::intern("goodbye");
inline const sim::Atom kTtlExpired = sim::Atom::intern("ttl-expired");
}  // namespace reason

struct MdnsConfig {
  /// Jittered announcement period: each interval is drawn uniformly from
  /// [announce_min, announce_max] so co-located Responders don't
  /// synchronize (phoenix-discovery staggers its helo broadcasts the
  /// same way).
  sim::SimDuration announce_min = sim::seconds(60);
  sim::SimDuration announce_max = sim::seconds(120);
  /// Back-to-back multicast repeats of a *changed* record (RFC 6762
  /// Section 8.3 announces an updated record multiple times). This is
  /// the model's entire m' budget: updates cost update_repeats messages
  /// regardless of the user population.
  int update_repeats = 2;
  /// Listener cache TTL; a record not refreshed by any announcement
  /// within the TTL is purged and querying resumes (PR5).
  sim::SimDuration cache_ttl = sim::seconds(1800);
  /// Query cadence while no matching record is cached.
  sim::SimDuration query_period = sim::seconds(120);
};

/// The plugin-layer behaviour sheet (see sdcm/discovery/protocol.hpp):
/// jittered peer announcements, no subscriptions, TTL'd caches, no
/// leases, UDP only, PR5 recovery, guaranteed re-convergence.
[[nodiscard]] discovery::ProtocolSpec protocol_spec() noexcept;

struct Announce {
  NodeId responder = sim::kNoNode;
  discovery::ServiceDescription sd;
};

struct Query {
  NodeId listener = sim::kNoNode;
  std::string device_type;
  std::string service_type;
};

struct Goodbye {
  NodeId responder = sim::kNoNode;
  ServiceId service = 0;
};

/// What a Listener is looking for (the paper's requirement R).
struct Interest {
  std::string device_type;
  std::string service_type;

  [[nodiscard]] bool matches(const std::string& device,
                             const std::string& service) const noexcept {
    return device_type == device && service_type == service;
  }
};

/// The Manager role: owns service records, announces them on a jittered
/// period, answers queries with multicast announcements, multicasts the
/// updated record on every change.
class MdnsResponder : public discovery::Node {
 public:
  MdnsResponder(sim::Simulator& simulator, net::Network& network, NodeId id,
                MdnsConfig config = {},
                discovery::ConsistencyObserver* observer = nullptr);

  void add_service(discovery::ServiceDescription sd);
  void change_service(ServiceId service);
  void change_service(ServiceId service,
                      const discovery::AttributeList& updates);
  void start() override;
  /// Multicasts goodbye records and stops announcing.
  void shutdown();
  /// Abrupt workload departure: stop announcing without goodbyes (the
  /// churn generator cuts the interface at the same instant). Listeners
  /// age the record out via the TTL instead, exactly as after a crash.
  void depart() override;
  /// One immediate announcement round (workload storm bursts).
  void announce_now() override;

  [[nodiscard]] const discovery::ServiceDescription& service(
      ServiceId service) const;

 private:
  void on_message(const net::Message& msg) override;
  [[nodiscard]] std::optional<std::vector<net::MessageType>>
  multicast_interests() const override;
  void announce_all();
  void announce_service(const discovery::ServiceDescription& sd,
                        net::MessageClass klass, int copies);
  [[nodiscard]] sim::SimDuration jitter();

  MdnsConfig config_;
  discovery::ConsistencyObserver* observer_;
  std::map<ServiceId, discovery::ServiceDescription> services_;
  sim::PeriodicTimer announce_timer_;
  bool running_ = false;
};

/// The User role: multicast queries until a matching record is cached,
/// TTL-ages the cache, purges and re-queries on expiry or goodbye.
class MdnsListener : public discovery::Node {
 public:
  MdnsListener(sim::Simulator& simulator, net::Network& network, NodeId id,
               Interest interest, MdnsConfig config = {},
               discovery::ConsistencyObserver* observer = nullptr);

  void start() override;
  /// Workload churn: drop the cached record and stop querying; the
  /// rejoin (default start()) queries afresh.
  void depart() override;
  [[nodiscard]] bool has_record() const noexcept { return sd_.has_value(); }
  [[nodiscard]] const std::optional<discovery::ServiceDescription>& cached()
      const noexcept {
    return sd_;
  }

 private:
  void on_message(const net::Message& msg) override;
  [[nodiscard]] std::optional<std::vector<net::MessageType>>
  multicast_interests() const override;
  void handle_announce(const net::Message& m);
  void send_query();
  void refresh_ttl();
  void purge(sim::Atom why);

  Interest interest_;
  MdnsConfig config_;
  discovery::ConsistencyObserver* observer_;
  std::optional<discovery::ServiceDescription> sd_;
  sim::PeriodicTimer query_timer_;
  sim::EventId ttl_expiry_ = sim::kInvalidEventId;
};

}  // namespace sdcm::mdns
