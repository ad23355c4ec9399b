#include "sdcm/experiment/workload.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <iterator>
#include <string>
#include <tuple>

#include "sdcm/discovery/node.hpp"
#include "sdcm/discovery/node_map.hpp"
#include "sdcm/obs/profile_site.hpp"

namespace sdcm::experiment {
namespace {

using sim::SimDuration;
using sim::SimTime;

/// Rejoins are scheduled one millisecond after the matching interface-up
/// edge, so the restarted node's first transmissions see a live link.
constexpr SimDuration kRejoinLag = sim::milliseconds(1);

/// Forks `rng` by the label `prefix` + the node id in decimal, the
/// bytes of prefix + std::to_string(node), built in a stack buffer: a
/// label past the SSO buffer would cost an allocation per node.
sim::Random fork_for_node(const sim::Random& rng, std::string_view prefix,
                          sim::NodeId node) {
  char label[32];
  assert(prefix.size() + 10 <= sizeof(label));  // 10: digits of a u32
  const std::size_t n = prefix.copy(label, prefix.size());
  const char* end = std::to_chars(label + n, std::end(label), node).ptr;
  return rng.fork(
      std::string_view(label, static_cast<std::size_t>(end - label)));
}

/// Churn draws for one node. Every draw comes from a child stream forked
/// by a label that names the node, so the plan for node A is independent
/// of whether node B exists - a requirement for shard invariance and for
/// cheap topology tweaks that must not re-roll unrelated nodes.
void plan_node_churn(const ChurnSpec& churn, sim::NodeId node,
                     SimTime duration, sim::Random& rng, WorkloadPlan& out) {
  sim::Random node_rng = fork_for_node(rng, "workload.churn.", node);

  if (node_rng.bernoulli(churn.permanent_leave_fraction)) {
    const SimTime leave =
        node_rng.uniform_time(churn.window_start, churn.window_end);
    out.events.push_back({leave, WorkloadAction::kDepart, node});
    // The outage runs to the horizon: the node is simply gone.
    out.episodes.push_back({node, net::FailureMode::kBoth, leave,
                            duration - leave});
    out.departed.push_back(node);
    return;
  }

  // Equal per-session slots keep cycles ordered and non-overlapping by
  // construction; the leave instant lands in the slot's first half so a
  // max_down absence can still fit before the slot ends.
  const SimDuration window = churn.window_end - churn.window_start;
  const SimDuration slot = window / churn.sessions;
  for (int s = 0; s < churn.sessions; ++s) {
    const SimTime slot_start = churn.window_start + s * slot;
    const SimTime leave =
        node_rng.uniform_time(slot_start, slot_start + slot / 2);
    SimDuration down = node_rng.uniform_time(churn.min_down, churn.max_down);
    down = std::min<SimDuration>(down,
                                 slot_start + slot - leave - 2 * kRejoinLag);
    if (down <= 0) continue;
    out.events.push_back({leave, WorkloadAction::kDepart, node});
    out.events.push_back(
        {leave + down + kRejoinLag, WorkloadAction::kRejoin, node});
    out.episodes.push_back({node, net::FailureMode::kBoth, leave, down});
  }
}

/// One event per announcement, not per burst: with zero jitter every
/// announcement of a burst lands on the same instant (the synchronized
/// herd), and the mitigation knob staggers each one independently by
/// U(0, jitter) - which is what actually spreads the load, since the
/// capacity model shapes each source link on its own token bucket.
void plan_storm(const StormSpec& storm, const WorkloadTopology& topology,
                sim::Random& rng, WorkloadPlan& out) {
  for (sim::NodeId announcer : topology.announcers) {
    sim::Random node_rng = fork_for_node(rng, "workload.storm.", announcer);
    for (int b = 0; b < storm.bursts; ++b) {
      const SimTime base = storm.first_burst + b * storm.burst_spacing;
      for (int a = 0; a < storm.announcements_per_burst; ++a) {
        SimTime at = base;
        if (storm.mitigation_jitter > 0) {
          at += node_rng.uniform_time(0, storm.mitigation_jitter);
        }
        out.events.push_back({at, WorkloadAction::kAnnounce, announcer});
      }
    }
  }
}

}  // namespace

std::string_view to_string(WorkloadKind kind) noexcept {
  switch (kind) {
    case WorkloadKind::kStatic:
      return "static";
    case WorkloadKind::kChurn:
      return "churn";
    case WorkloadKind::kStorm:
      return "storm";
    case WorkloadKind::kSaturation:
      return "saturation";
  }
  return "?";
}

std::string_view to_string(WorkloadAction action) noexcept {
  switch (action) {
    case WorkloadAction::kDepart:
      return "depart";
    case WorkloadAction::kRejoin:
      return "rejoin";
    case WorkloadAction::kAnnounce:
      return "announce";
  }
  return "?";
}

std::optional<WorkloadKind> workload_from_name(std::string_view name) noexcept {
  for (WorkloadKind kind :
       {WorkloadKind::kStatic, WorkloadKind::kChurn, WorkloadKind::kStorm,
        WorkloadKind::kSaturation}) {
    if (name == to_string(kind)) return kind;
  }
  return std::nullopt;
}

std::optional<std::string> WorkloadSpec::validate(SimTime duration) const {
  switch (kind) {
    case WorkloadKind::kStatic:
      return std::nullopt;

    case WorkloadKind::kChurn: {
      if (churn.sessions < 1) return "churn: sessions must be >= 1";
      if (churn.window_start < 0) return "churn: window_start must be >= 0";
      if (churn.window_start >= churn.window_end) {
        return "churn: window_start must precede window_end";
      }
      if (churn.window_end + kRejoinLag > duration) {
        return "churn: window extends past the run horizon (rejoins need "
               "1 ms of headroom after window_end)";
      }
      if (churn.min_down <= 0) return "churn: min_down must be positive";
      if (churn.min_down > churn.max_down) {
        return "churn: min_down must not exceed max_down";
      }
      if (churn.permanent_leave_fraction < 0.0 ||
          churn.permanent_leave_fraction > 1.0) {
        return "churn: permanent_leave_fraction must be in [0, 1]";
      }
      if (!churn.churn_users && !churn.churn_manager) {
        return "churn: at least one of users/manager must churn";
      }
      return std::nullopt;
    }

    case WorkloadKind::kSaturation:
      if (saturation.link_rate_hz <= 0.0) {
        return "saturation: link_rate_hz must be positive";
      }
      if (saturation.burst_capacity < 1.0) {
        return "saturation: burst_capacity must be >= 1";
      }
      if (saturation.queue_limit < 0) {
        return "saturation: queue_limit must be >= 0";
      }
      [[fallthrough]];  // saturation drives the storm generator too

    case WorkloadKind::kStorm: {
      if (storm.bursts < 1) return "storm: bursts must be >= 1";
      if (storm.announcements_per_burst < 1) {
        return "storm: announcements_per_burst must be >= 1";
      }
      if (storm.first_burst < 0) return "storm: first_burst must be >= 0";
      if (storm.burst_spacing < 0) {
        return "storm: burst_spacing must be >= 0";
      }
      if (storm.bursts > 1 && storm.burst_spacing == 0) {
        return "storm: burst_spacing must be positive for multiple bursts";
      }
      if (storm.mitigation_jitter < 0) {
        return "storm: mitigation_jitter must be >= 0";
      }
      const SimTime last_burst = storm.first_burst +
                                 SimDuration{storm.bursts - 1} *
                                     storm.burst_spacing +
                                 storm.mitigation_jitter;
      if (last_burst >= duration) {
        return "storm: last burst (incl. jitter) extends past the run "
               "horizon";
      }
      return std::nullopt;
    }
  }
  return "unknown workload kind";
}

WorkloadPlan plan_workload(const WorkloadSpec& spec,
                           const WorkloadTopology& topology, SimTime duration,
                           sim::Random& rng) {
  WorkloadPlan plan;
  switch (spec.kind) {
    case WorkloadKind::kStatic:
      break;

    case WorkloadKind::kChurn: {
      const bool churn_manager =
          spec.churn.churn_manager && topology.manager != sim::kNoNode;
      const std::size_t nodes =
          (spec.churn.churn_users ? topology.users.size() : 0) +
          (churn_manager ? 1 : 0);
      const auto sessions = static_cast<std::size_t>(spec.churn.sessions);
      plan.events.reserve(2 * sessions * nodes);
      plan.episodes.reserve(sessions * nodes);
      if (spec.churn.churn_users) {
        for (sim::NodeId user : topology.users) {
          plan_node_churn(spec.churn, user, duration, rng, plan);
        }
      }
      if (churn_manager) {
        plan_node_churn(spec.churn, topology.manager, duration, rng, plan);
      }
      break;
    }

    case WorkloadKind::kStorm:
    case WorkloadKind::kSaturation:
      plan_storm(spec.storm, topology, rng, plan);
      break;
  }

  // A canonical order makes plans comparable across runs and keeps the
  // scenario's event scheduling independent of generator internals.
  auto key = [](const WorkloadEvent& e) {
    return std::tuple(e.at, e.node, static_cast<int>(e.action));
  };
  std::sort(plan.events.begin(), plan.events.end(),
            [&](const WorkloadEvent& a, const WorkloadEvent& b) {
              return key(a) < key(b);
            });
  return plan;
}

void schedule_workload_events(
    sim::Simulator& simulator,
    std::span<const std::unique_ptr<discovery::Node>> nodes,
    sim::NodeId id_bound, std::span<const WorkloadEvent> events) {
  if (events.empty()) return;
  discovery::NodeMap<sim::NodeId, discovery::Node*> by_id;
  by_id.reserve(id_bound);
  for (const auto& node : nodes) {
    by_id.insert_or_assign(node->id(), node.get());
  }
  for (const WorkloadEvent& event : events) {
    discovery::Node* const* found = by_id.find(event.node);
    if (found == nullptr) continue;
    discovery::Node* node = *found;
    switch (event.action) {
      case WorkloadAction::kDepart:
        simulator.schedule_at(event.at, [&simulator, node] {
          SDCM_PROFILE_SITE(simulator, "timer.workload.depart");
          node->depart();
        });
        break;
      case WorkloadAction::kRejoin:
        simulator.schedule_at(event.at, [&simulator, node] {
          SDCM_PROFILE_SITE(simulator, "timer.workload.rejoin");
          node->rejoin();
        });
        break;
      case WorkloadAction::kAnnounce:
        simulator.schedule_at(event.at, [&simulator, node] {
          SDCM_PROFILE_SITE(simulator, "timer.workload.announce");
          node->announce_now();
        });
        break;
    }
  }
}

}  // namespace sdcm::experiment
