#pragma once

// Typed workload engine: deterministic, seed-driven load generators the
// experiment harness layers on top of the paper's static scenario. A
// WorkloadSpec is a sibling of AblationSpec - plain data that serializes,
// compares and logs - and expands, per run, into a WorkloadPlan: timed
// depart/rejoin/announce events plus the failure episodes that model a
// churning node's radio silence. Three generators (DESIGN.md section 11):
//
//  - churn: Managers/Users leave and rejoin mid-run; each absence is a
//    both-directions failure episode, so lease expiry races the node's
//    departure exactly as it would against a crash;
//  - storm: synchronized announce bursts across every announcing node,
//    with a jittered-interval mitigation knob (phoenix-discovery staggers
//    its helo broadcasts over a 30-60 s window the same way);
//  - saturation: the storm plus a per-link token-bucket capacity model in
//    net::Network, so bursts actually delay and drop traffic.
//
// The default spec (kStatic) is inert: no rng fork, no plan, no capacity
// model - default runs keep bit-identical golden trace fingerprints.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sdcm/net/failure_model.hpp"
#include "sdcm/sim/random.hpp"
#include "sdcm/sim/time.hpp"

namespace sdcm::discovery {
class Node;
}

namespace sdcm::experiment {

enum class WorkloadKind : std::uint8_t {
  /// The paper's scenario: fixed population, no load generator.
  kStatic,
  kChurn,
  kStorm,
  kSaturation,
};

std::string_view to_string(WorkloadKind kind) noexcept;

/// Case-sensitive name lookup ("static", "churn", "storm", "saturation").
std::optional<WorkloadKind> workload_from_name(std::string_view name) noexcept;

/// Continuous join/leave churn. Each churning node runs `sessions`
/// leave/rejoin cycles inside [window_start, window_end]; the window is
/// sliced into equal per-session slots so cycles never overlap and the
/// plan stays valid for any draw. A node may instead leave for good
/// (permanent_leave_fraction), which the oracle is told about - departed
/// nodes are exempt from the convergence check.
struct ChurnSpec {
  int sessions = 3;
  sim::SimTime window_start = sim::seconds(150);
  sim::SimTime window_end = sim::seconds(4800);
  /// Absence duration per cycle, drawn U(min_down, max_down) then
  /// clamped to its slot. 30-300 s brackets the protocols' lease and
  /// announcement periods, so departures race lease expiry both ways.
  sim::SimDuration min_down = sim::seconds(30);
  sim::SimDuration max_down = sim::seconds(300);
  bool churn_users = true;
  bool churn_manager = false;
  /// Probability a churning node's first departure is final.
  double permanent_leave_fraction = 0.0;

  friend bool operator==(const ChurnSpec&, const ChurnSpec&) = default;
};

/// Synchronized announcement bursts: every announcing node multicasts
/// `announcements_per_burst` unsolicited announcements at each burst
/// instant. mitigation_jitter is the thundering-herd fix under test:
/// 0 keeps the herd synchronized (every announcement of a burst on the
/// same instant); a positive window staggers each announcement
/// independently by U(0, jitter), spreading the load over the window.
struct StormSpec {
  int bursts = 8;
  int announcements_per_burst = 4;
  sim::SimTime first_burst = sim::seconds(200);
  sim::SimDuration burst_spacing = sim::seconds(600);
  sim::SimDuration mitigation_jitter = 0;

  friend bool operator==(const StormSpec&, const StormSpec&) = default;
};

/// Finite link capacity: a per-source token bucket (rate + burst) with a
/// bounded virtual queue, applied by net::Network to every wire copy.
/// Messages beyond the burst are delayed by their queue position;
/// messages beyond the queue bound are dropped (net.drop.capacity).
/// The defaults are sized against the default StormSpec: a synchronized
/// burst of 4 same-instant announcements overdraws the 2-token bucket
/// (1 queued, 1 dropped per burst), so saturation runs actually delay
/// and drop traffic - while the paper scenario's steady-state chatter
/// stays far below 100 msg/s per link and is never shaped.
struct SaturationSpec {
  double link_rate_hz = 100.0;
  double burst_capacity = 2.0;
  int queue_limit = 1;

  friend bool operator==(const SaturationSpec&, const SaturationSpec&) =
      default;
};

/// The full per-run workload description. kStorm uses `storm` only;
/// kSaturation drives the same storm through the `saturation` capacity
/// model so the bursts meet back-pressure.
struct WorkloadSpec {
  WorkloadKind kind = WorkloadKind::kStatic;
  ChurnSpec churn;
  StormSpec storm;
  SaturationSpec saturation;

  [[nodiscard]] bool enabled() const noexcept {
    return kind != WorkloadKind::kStatic;
  }

  /// std::nullopt when the spec fits a run of `duration`; otherwise the
  /// first problem (churn window or storm burst past the horizon,
  /// non-positive rates, ...). Rejoins need 1 ms of headroom after the
  /// churn window, so window_end must stay short of the horizon.
  [[nodiscard]] std::optional<std::string> validate(
      sim::SimTime duration) const;

  friend bool operator==(const WorkloadSpec&, const WorkloadSpec&) = default;
};

enum class WorkloadAction : std::uint8_t {
  kDepart,
  kRejoin,
  /// One unsolicited announcement (plans carry one event per
  /// announcement; a synchronized burst is several at one instant).
  kAnnounce,
};

std::string_view to_string(WorkloadAction action) noexcept;

struct WorkloadEvent {
  sim::SimTime at = 0;
  WorkloadAction action = WorkloadAction::kDepart;
  sim::NodeId node = sim::kNoNode;

  friend bool operator==(const WorkloadEvent&, const WorkloadEvent&) = default;
};

/// The node sets a workload may act on, supplied by the scenario from
/// the protocol descriptor: the tracked Users, the Manager, and the
/// nodes whose announce_now() is the protocol's unsolicited announcement
/// (registries for registry-announcing protocols, the Manager
/// otherwise).
struct WorkloadTopology {
  std::vector<sim::NodeId> users;
  std::vector<sim::NodeId> announcers;
  sim::NodeId manager = sim::kNoNode;
};

/// One run's expanded workload: lifecycle/announce events in time order,
/// the churn-outage failure episodes to append to the run's failure
/// plan, and the nodes that leave permanently (for the oracle).
struct WorkloadPlan {
  std::vector<WorkloadEvent> events;
  std::vector<net::FailureEpisode> episodes;
  std::vector<sim::NodeId> departed;

  [[nodiscard]] bool empty() const noexcept {
    return events.empty() && episodes.empty();
  }
};

/// Deterministic expansion: the same (spec, topology, duration, rng
/// stream) always yields the identical plan, independent of thread
/// count or sweep shard. Per-node draws come from child streams forked
/// off `rng` by stable labels, so adding a node never re-rolls another
/// node's sessions. `spec` must validate against `duration`.
WorkloadPlan plan_workload(const WorkloadSpec& spec,
                           const WorkloadTopology& topology,
                           sim::SimTime duration, sim::Random& rng);

/// Schedules each of `events` (a plan's, in plan order) as a call of
/// its node's depart(), rejoin() or announce_now(). The nodes are found
/// by id in a table sized from `id_bound` (one past the largest id); an
/// event whose node is not among `nodes` is skipped.
void schedule_workload_events(
    sim::Simulator& simulator,
    std::span<const std::unique_ptr<discovery::Node>> nodes,
    sim::NodeId id_bound, std::span<const WorkloadEvent> events);

}  // namespace sdcm::experiment
