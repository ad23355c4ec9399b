#pragma once

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sdcm/discovery/observer.hpp"
#include "sdcm/net/failure_model.hpp"
#include "sdcm/net/network.hpp"
#include "sdcm/sim/trace.hpp"

namespace sdcm::check {

using sim::NodeId;
using sim::SimTime;
using sim::SpanId;

/// The per-run invariants the oracle asserts. They formalize the
/// consistency-maintenance claims of Sections 4-6: after the last
/// failure episode the system converges back to a consistent state
/// (self-stabilization), versions never regress, every update delivery
/// is causally rooted in the change that produced it, leases are honored
/// and cleaned up, and the injected fault plan is realized exactly.
enum class Invariant : std::uint8_t {
  kConvergence,
  kMonotonicity,
  kCausality,
  kLeaseHygiene,
  kInterface,
};

std::string_view to_string(Invariant invariant) noexcept;

struct Violation {
  Invariant invariant = Invariant::kConvergence;
  SimTime at = 0;
  NodeId node = sim::kNoNode;
  SpanId span = sim::kNoSpan;
  std::string detail;

  [[nodiscard]] std::string describe() const;
};

struct OracleConfig {
  /// Assert convergence at finish(). Only meaningful for runs shaped to
  /// guarantee it: a quiet tail after the last episode, no message loss,
  /// and a model that promises eventual consistency (UPnP does not - it
  /// legitimately strands users whose subscription lapsed mid-outage).
  bool require_convergence = false;
  /// Minimum quiet time between the end of the last failure episode and
  /// the deadline for the convergence check to apply at all.
  sim::SimDuration convergence_grace = sim::seconds(5400);
  /// Grace on lease cleanup: a purge may run this much after the lease
  /// expiry it reacts to.
  sim::SimDuration lease_expiry_slack = sim::seconds(1);
  /// Violations stored verbatim in the report; the total is always
  /// counted.
  std::size_t max_stored_violations = 100;
};

struct OracleReport {
  std::vector<Violation> violations;
  std::uint64_t violation_total = 0;
  std::uint64_t records_checked = 0;
  std::uint64_t wire_sends = 0;
  std::uint64_t wire_arrivals = 0;
  std::uint64_t version_observations = 0;
  std::uint64_t notifications_checked = 0;
  std::uint64_t leases_tracked = 0;

  [[nodiscard]] bool ok() const noexcept { return violation_total == 0; }
};

/// Online consistency oracle for one simulation run.
///
/// Observes the run through three out-of-band channels - the trace
/// stream (as the TraceLog's writer, tee-ing to a downstream writer so
/// --check composes with --traces), the network's WireProbe, and the
/// ConsistencyObserver's oracle hooks - and never itself records,
/// draws randomness, or otherwise perturbs the simulation, so trace
/// fingerprints are identical with and without an oracle attached.
///
/// Lifecycle: begin_run() before the topology is built (installs the
/// hooks), arm() once the failure plan exists, then run; finish() after
/// the run performs the end-of-run checks and returns the report.
/// finish() is self-contained: it may be called after the simulator,
/// network and observer have been destroyed.
class ConsistencyOracle final : public sim::TraceWriter,
                                public net::WireProbe {
 public:
  explicit ConsistencyOracle(OracleConfig config = {});

  /// Tee every trace record to `writer` (non-owning; nullptr detaches).
  void set_downstream(sim::TraceWriter* writer) noexcept {
    downstream_ = writer;
  }

  /// Resets all state and attaches to a run ending at `deadline`.
  void begin_run(discovery::ConsistencyObserver& observer,
                 net::Network& network, SimTime deadline);

  /// Captures the failure plan (as merged per-node per-direction outage
  /// unions) and the tracked users. Call after plan_failures, before the
  /// simulation runs. `departed` names nodes a workload removes for good
  /// (permanent churn leavers): they are exempt from the convergence
  /// check, and their to-horizon outage episodes do not push
  /// last_episode_end_ - a legitimately absent node must not disable
  /// convergence checking for everyone else.
  void arm(std::span<const net::FailureEpisode> plan,
           std::span<const NodeId> users,
           std::span<const NodeId> departed = {});

  /// End-of-run checks (leaked leases, convergence); returns the report.
  OracleReport finish();

  [[nodiscard]] const OracleConfig& config() const noexcept {
    return config_;
  }

  // sim::TraceWriter
  void on_record(const sim::TraceRecord& record) override;

  // net::WireProbe
  void on_send(const net::Message& msg, bool tx_up, SimTime at) override;
  void on_arrival(const net::Message& msg, bool rx_up, bool lost,
                  SimTime at) override;

 private:
  struct Interval {
    SimTime start = 0;
    SimTime end = 0;
  };
  struct Outage {
    NodeId node = sim::kNoNode;
    std::uint8_t direction = 0;  // 0 = tx, 1 = rx
    Interval interval;
  };
  struct SpanMeta {
    SpanId span = sim::kNoSpan;
    SimTime at = 0;
    bool from_change = false;
  };
  struct LeaseState {
    SimTime expires_at = 0;
    bool active = false;
  };

  void add_violation(Invariant invariant, SimTime at, NodeId node,
                     SpanId span, std::string detail);
  void check_interface(NodeId node, bool direction_is_tx, bool up,
                       SimTime at, std::string_view what);
  void note_change(discovery::ServiceVersion version, SimTime at);
  [[nodiscard]] bool known_version(discovery::ServiceVersion version) const;
  [[nodiscard]] bool departed_by(NodeId node) const;
  [[nodiscard]] const SpanMeta* find_span(SpanId span) const;
  void note_span(const SpanMeta& meta);

  // Observer hook handlers.
  void on_user_version(NodeId user, discovery::ServiceVersion version,
                       SimTime at);
  void on_lease_granted(NodeId holder, NodeId user, SimTime expires_at,
                        SimTime at);
  void on_lease_dropped(NodeId holder, NodeId user, SimTime at);
  void on_notification_sent(NodeId holder, NodeId user,
                            discovery::ServiceVersion version, SimTime at);

  OracleConfig config_;
  sim::TraceWriter* downstream_ = nullptr;
  OracleReport report_;
  SimTime deadline_ = 0;

  // Per-run state lives in vectors that begin_run() clears but keeps the
  // capacity of, so a campaign worker's oracle stops allocating after
  // its first run.

  // Fault plan, armed.
  bool armed_ = false;
  SimTime last_episode_end_ = 0;
  /// Merged closed outage intervals, sorted by (node, direction, start).
  std::vector<Outage> outages_;
  /// Dense by NodeId: the intervals of (node, d) are outages_[i] for
  /// outage_index_[2 * node + d] <= i < outage_index_[2 * node + d + 1];
  /// nodes past the end have none. Probed on every wire send and arrival.
  std::vector<std::uint32_t> outage_index_;
  std::vector<NodeId> users_;
  /// Permanent workload leavers, exempt from convergence; sorted.
  std::vector<NodeId> departed_;

  // Causality state.
  SpanId last_span_ = sim::kNoSpan;
  /// Every recorded span, sorted by id. A run's ids are 1, 2, 3, ..., so
  /// span s sits at index s - 1 and a parent lookup is one indexed load;
  /// hand-built streams with gaps or huge ids fall back to a binary
  /// search, so memory stays proportional to the records seen.
  std::vector<SpanMeta> spans_;
  std::vector<discovery::ServiceVersion> known_versions_;
  discovery::ServiceVersion latest_change_ = 0;

  // Monotonicity / convergence state.
  std::map<NodeId, discovery::ServiceVersion> user_versions_;

  // Lease state, keyed by (holder, user).
  std::map<std::pair<NodeId, NodeId>, LeaseState> leases_;
};

}  // namespace sdcm::check
