#include "sdcm/experiment/scenario.hpp"

#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sdcm/check/oracle.hpp"
#include "sdcm/discovery/observer.hpp"
#include "sdcm/experiment/protocol_registry.hpp"
#include "sdcm/experiment/workload.hpp"
#include "sdcm/net/failure_model.hpp"
#include "sdcm/obs/profile_site.hpp"

namespace sdcm::experiment {

namespace {

/// Phase-timer sites (see DESIGN.md section 13): interned once, shared
/// by every run in the process. The engine-side phases
/// (phase.oracle_check / phase.sink_flush) live in sweep.cpp.
struct PhaseSites {
  std::uint32_t topology_build = obs::profile_site_id("phase.topology_build");
  std::uint32_t failure_plan = obs::profile_site_id("phase.failure_plan");
  std::uint32_t workload_plan = obs::profile_site_id("phase.workload_plan");
  std::uint32_t run_loop = obs::profile_site_id("phase.run_loop");
  std::uint32_t extract = obs::profile_site_id("phase.extract");
};

const PhaseSites& phase_sites() {
  static const PhaseSites sites;
  return sites;
}

/// Shared body of run_experiment / run_experiment_traced. The simulator
/// lives in the caller so the traced variant can move the trace log and
/// registry out after the run. `keep_records` forces in-memory trace
/// storage regardless of config.record_trace.
metrics::RunRecord run_impl(const ExperimentConfig& config,
                            sim::Simulator& simulator, bool keep_records) {
  obs::Profiler* const profiler = config.profiler;
  if (profiler != nullptr) simulator.set_profiler(profiler);
  std::optional<obs::PhaseScope> phase;
  phase.emplace(profiler, phase_sites().topology_build);
  const bool store = config.record_trace || keep_records;
  simulator.trace().set_recording(store || config.trace_writer != nullptr ||
                                  config.oracle != nullptr);
  simulator.trace().set_store(store);
  if (config.oracle != nullptr) {
    // The oracle tees to the configured writer so --check composes with
    // --traces.
    config.oracle->set_downstream(config.trace_writer);
    simulator.trace().set_writer(config.oracle);
  } else if (config.trace_writer != nullptr) {
    simulator.trace().set_writer(config.trace_writer);
  }
  net::Network network(simulator);
  network.set_message_loss_rate(config.message_loss_rate);
  discovery::ConsistencyObserver observer;
  if (config.oracle != nullptr) {
    config.oracle->begin_run(observer, network, config.duration);
  }

  const ProtocolDescriptor& descriptor = protocol_descriptor(config.model);
  const TopologyLayout layout =
      resolve_topology(config.model, config.topology);
  network.reserve_nodes(layout.id_bound());
  Topology topo = descriptor.build(config, simulator, network, observer);
  if (config.workload.kind == WorkloadKind::kSaturation) {
    // Before start(): startup multicasts are shaped like everything else.
    network.set_link_capacity(config.workload.saturation.link_rate_hz,
                              config.workload.saturation.burst_capacity,
                              config.workload.saturation.queue_limit);
  }
  for (auto& node : topo.nodes) node->start();

  // Failure plan (Section 5 Step 2): one episode per node at rate lambda.
  phase.emplace(profiler, phase_sites().failure_plan);
  auto failure_rng = simulator.rng().fork("experiment.failures");
  net::FailurePlanConfig plan_config;
  plan_config.lambda = config.lambda;
  plan_config.horizon =
      config.failure_horizon > 0 ? config.failure_horizon : config.duration;
  plan_config.placement = config.failure_placement;
  plan_config.episodes = config.failure_episodes;
  auto plan = net::plan_failures(network.nodes(), plan_config, failure_rng);

  // Workload plan: churn departures ride the same failure-episode
  // machinery (a leaver's interfaces go down for the whole absence), so
  // the oracle's outage model covers them with no new concepts. The
  // phase also covers arming the oracle, applying the failure plan and
  // scheduling the lifecycle/change events - the whole pre-loop tail.
  phase.emplace(profiler, phase_sites().workload_plan);
  WorkloadPlan workload_plan;
  if (config.workload.enabled()) {
    WorkloadTopology workload_topo;
    workload_topo.manager = layout.manager_id(0);
    for (int i = 0; i < layout.users; ++i) {
      workload_topo.users.push_back(layout.user_id(i));
    }
    if (descriptor.spec.announce ==
            discovery::AnnouncePolicy::kRegistryPeriodic &&
        layout.registries > 0) {
      for (int r = 0; r < layout.registries; ++r) {
        workload_topo.announcers.push_back(layout.registry_id(r));
      }
    } else {
      for (int j = 0; j < layout.managers; ++j) {
        workload_topo.announcers.push_back(layout.manager_id(j));
      }
    }
    auto workload_rng = simulator.rng().fork("experiment.workload");
    workload_plan = plan_workload(config.workload, workload_topo,
                                  config.duration, workload_rng);
    plan.insert(plan.end(), workload_plan.episodes.begin(),
                workload_plan.episodes.end());
  }

  if (config.oracle != nullptr) {
    config.oracle->arm(plan, observer.users(), workload_plan.departed);
  }
  // Every episode schedules a down and an up edge: grow the queue once
  // for the whole planned timeline, so no live callback relocates while
  // it is scheduled.
  simulator.reserve_events(2 * plan.size() + workload_plan.events.size());
  net::apply_failures(simulator, network, plan);

  // Schedule the lifecycle events after apply_failures: at an equal
  // timestamp the interface-down flip fires first, so a depart()'s state
  // reset never races its own episode's radio silence.
  schedule_workload_events(simulator, topo.nodes, layout.id_bound(),
                           workload_plan.events);

  // One change at a uniformly random time in [change_min, change_max].
  auto change_rng = simulator.rng().fork("experiment.change");
  const sim::SimTime change_at =
      change_rng.uniform_time(config.change_min, config.change_max);

  // y(i) window bookkeeping: snapshot the kUpdate + kDiscovery counters
  // at the change, then again at every (first) consistency event; the
  // window closes when the last User regains consistency.
  const auto chatter_total = [&network] {
    return network.counters().of_class(net::MessageClass::kUpdate) +
           network.counters().of_class(net::MessageClass::kDiscovery);
  };
  std::uint64_t count_at_change = 0;
  std::uint64_t count_at_last_reach = 0;
  std::size_t users_reached = 0;
  bool window_closed = false;
  observer.on_user_reached = [&](sim::NodeId, discovery::ServiceVersion version,
                                 sim::SimTime) {
    if (version != 2 || window_closed) return;
    count_at_last_reach = chatter_total();
    if (++users_reached == static_cast<std::size_t>(layout.users)) {
      window_closed = true;
    }
  };
  simulator.schedule_at(change_at, [&] {
    SDCM_PROFILE_SITE(simulator, "timer.experiment.change");
    count_at_change = chatter_total();
    topo.change_service();
  });

  phase.emplace(profiler, phase_sites().run_loop);
  simulator.run_until(config.duration);

  phase.emplace(profiler, phase_sites().extract);
  // Every run doubles as a churn-correctness check of the interest
  // index: after arbitrary depart/rejoin/announce traffic the dense
  // per-type subscriber lists must still equal a from-scratch rebuild.
  if (!network.check_subscription_index()) {
    throw std::logic_error(
        "net::Network subscription index diverged from a rebuild");
  }
  metrics::RunRecord record;
  record.change_time = change_at;
  record.deadline = config.duration;
  for (const sim::NodeId user : observer.users()) {
    record.user_reach_times.push_back(observer.reach_time(user, 2));
  }
  record.update_messages =
      network.counters().of_class(net::MessageClass::kUpdate);
  record.window_messages =
      (window_closed ? count_at_last_reach : chatter_total()) -
      count_at_change;
  record.kernel = simulator.kernel_stats();
  if (simulator.trace().recording()) {
    record.trace_fingerprint = simulator.trace().fingerprint();
  }
  phase.reset();
  if (profiler != nullptr) simulator.set_profiler(nullptr);
  return record;
}

}  // namespace

metrics::RunRecord run_experiment(const ExperimentConfig& config) {
  sim::Simulator simulator(config.seed);
  return run_impl(config, simulator, /*keep_records=*/false);
}

TracedExperiment run_experiment_traced(const ExperimentConfig& config) {
  sim::Simulator simulator(config.seed);
  TracedExperiment out;
  out.record = run_impl(config, simulator, /*keep_records=*/true);
  out.trace = std::move(simulator.trace());
  return out;
}

}  // namespace sdcm::experiment
