#include "sdcm/net/failure_model.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <vector>

#include "sdcm/obs/profile_site.hpp"

namespace sdcm::net {

namespace {

/// A failure mode as the detail atom of interface.down / interface.up.
sim::Atom mode_atom(FailureMode m) {
  static const sim::Atom atoms[] = {
      sim::Atom::intern(to_string(FailureMode::kNone)),
      sim::Atom::intern(to_string(FailureMode::kTransmitter)),
      sim::Atom::intern(to_string(FailureMode::kReceiver)),
      sim::Atom::intern(to_string(FailureMode::kBoth))};
  return atoms[static_cast<std::size_t>(m)];
}

}  // namespace

std::string_view to_string(FailureMode m) noexcept {
  switch (m) {
    case FailureMode::kNone: return "none";
    case FailureMode::kTransmitter: return "tx";
    case FailureMode::kReceiver: return "rx";
    case FailureMode::kBoth: return "tx+rx";
  }
  return "unknown";
}

std::vector<FailureEpisode> plan_failures(std::span<const NodeId> nodes,
                                          const FailurePlanConfig& config,
                                          sim::Random& rng) {
  assert(config.lambda >= 0.0 && config.lambda <= 1.0);
  std::vector<FailureEpisode> plan;
  if (config.lambda <= 0.0) return plan;

  const int episodes = std::max(1, config.episodes);
  const double total_down = config.lambda * sim::to_seconds(config.horizon);
  const sim::SimDuration duration = sim::seconds_f(total_down / episodes);
  const sim::SimTime window =
      (config.horizon - config.min_start) / episodes;
  // A fit-inside episode cannot exceed its window; when the cap binds
  // (lambda > 1 - min_start/horizon) the plan saturates rather than spill
  // an episode into the next window, where the next episode's "up"
  // transition would cut this one short.
  const sim::SimDuration fit_duration = std::min(duration, window);

  plan.reserve(nodes.size() * static_cast<std::size_t>(episodes));
  for (const NodeId node : nodes) {
    for (int e = 0; e < episodes; ++e) {
      const bool fit = config.placement == FailurePlacement::kFitInside;
      const sim::SimTime window_start = config.min_start + e * window;
      sim::SimTime latest_start;
      if (fit) {
        latest_start =
            std::max(window_start, window_start + window - fit_duration);
      } else {
        latest_start = window_start + window;
      }
      FailureEpisode ep;
      ep.node = node;
      ep.mode = static_cast<FailureMode>(rng.uniform_int(
          static_cast<std::int64_t>(FailureMode::kTransmitter),
          static_cast<std::int64_t>(FailureMode::kBoth)));
      ep.start = rng.uniform_time(window_start, latest_start);
      ep.duration = fit ? fit_duration : duration;
      plan.push_back(ep);
    }
  }
  return plan;
}

void apply_failures(sim::Simulator& simulator, Network& network,
                    std::span<const FailureEpisode> plan) {
  // Nesting depth of concurrent episodes per node per direction, indexed
  // by NodeId and sized once from the plan; shared by every transition
  // of this plan and kept alive by the lambdas.
  struct DownDepth {
    int tx = 0;
    int rx = 0;
  };
  NodeId max_node = 0;
  for (const FailureEpisode& ep : plan) max_node = std::max(max_node, ep.node);
  const auto depth = std::make_shared<std::vector<DownDepth>>(
      static_cast<std::size_t>(max_node) + 1);
  for (const FailureEpisode& ep : plan) {
    if (ep.mode == FailureMode::kNone || ep.duration <= 0) continue;
    const bool tx = ep.mode == FailureMode::kTransmitter ||
                    ep.mode == FailureMode::kBoth;
    const bool rx =
        ep.mode == FailureMode::kReceiver || ep.mode == FailureMode::kBoth;
    simulator.schedule_at(
        ep.start, [&simulator, &network, ep, tx, rx, depth]() {
          SDCM_PROFILE_SITE(simulator, "timer.net.interface_down");
          auto& iface = network.interface(ep.node);
          DownDepth& nesting = (*depth)[ep.node];
          if (tx) {
            ++nesting.tx;
            iface.set_tx(false);
          }
          if (rx) {
            ++nesting.rx;
            iface.set_rx(false);
          }
          simulator.trace().record(
              simulator.now(), ep.node, sim::TraceCategory::kFailure,
              tag::kInterfaceDown,
              sim::TraceDetail{}.reason(mode_atom(ep.mode)));
        });
    simulator.schedule_at(
        ep.end(), [&simulator, &network, ep, tx, rx, depth]() {
          SDCM_PROFILE_SITE(simulator, "timer.net.interface_up");
          auto& iface = network.interface(ep.node);
          DownDepth& nesting = (*depth)[ep.node];
          if (tx && --nesting.tx <= 0) iface.set_tx(true);
          if (rx && --nesting.rx <= 0) iface.set_rx(true);
          simulator.trace().record(
              simulator.now(), ep.node, sim::TraceCategory::kFailure,
              tag::kInterfaceUp, sim::TraceDetail{}.reason(mode_atom(ep.mode)));
        });
  }
}

}  // namespace sdcm::net
