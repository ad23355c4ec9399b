#pragma once

#include <cstdint>
#include <string_view>

#include "sdcm/experiment/workload.hpp"
#include "sdcm/frodo/config.hpp"
#include "sdcm/jini/config.hpp"
#include "sdcm/mdns/mdns.hpp"
#include "sdcm/metrics/update_metrics.hpp"
#include "sdcm/net/failure_model.hpp"
#include "sdcm/net/network.hpp"
#include "sdcm/obs/profiler.hpp"
#include "sdcm/sim/trace.hpp"
#include "sdcm/upnp/config.hpp"

namespace sdcm::check {
class ConsistencyOracle;
}

namespace sdcm::experiment {

/// The five simulated systems of Section 5, plus extension protocols
/// registered through the protocol-behavior plugin layer (see
/// sdcm/experiment/protocol_registry.hpp). kMdns is a fully
/// decentralized mDNS/DNS-SD-style model with no Registry node at all.
enum class SystemModel : std::uint8_t {
  kUpnp,
  kJiniOneRegistry,
  kJiniTwoRegistries,
  kFrodoThreeParty,
  kFrodoTwoParty,
  kMdns,
};

inline constexpr SystemModel kAllModels[] = {
    SystemModel::kUpnp,           SystemModel::kJiniOneRegistry,
    SystemModel::kJiniTwoRegistries, SystemModel::kFrodoThreeParty,
    SystemModel::kFrodoTwoParty,  SystemModel::kMdns};

/// Registry-backed lookups (single source of truth lives in the protocol
/// registry; these forwarders keep the historical call sites compiling).
std::string_view to_string(SystemModel model) noexcept;

/// The system's own zero-failure update-message count m' (Figure 6's
/// legend: Jini-1R 7, Jini-2R 14, UPnP 15, FRODO 7/7; mDNS spends a
/// constant update_repeats = 2), computed for the given user count.
/// `registries` overrides the partitioned-registry count (Jini's m'
/// scales as R*(users+2)); -1 keeps the model's paper default.
std::uint64_t minimum_update_messages(SystemModel model, int users,
                                      int registries = -1) noexcept;

/// Typed population of one simulated topology: U Users, M Managers
/// (service providers) and R dedicated registry nodes. The paper
/// scenario is {5, 1, model default}; scale studies raise any axis
/// independently (Jini with R>=2 partitioned registries, FRODO with
/// extra Backup candidates, 10^5..10^6-User populations).
struct TopologySpec {
  /// Users subscribed to the monitored service.
  int users = 5;
  /// Service providers. Manager 0 owns the monitored service; extra
  /// Managers publish background services that exercise the registry
  /// and multicast paths without joining the consistency window.
  int managers = 1;
  /// Dedicated registry nodes; -1 defers to the model's paper count
  /// (ProtocolDescriptor::registry_nodes: Jini-1R 1, Jini-2R 2,
  /// FRODO 1/2, UPnP and mDNS 0). Registry-less models ignore
  /// overrides - they have no registry node class to instantiate.
  int registries = -1;
};

/// Configuration of one simulation run, defaulted to the paper's
/// experiment design (Section 5 Step 5): 5400 s run, 5 Users, discovery
/// in the first 100 s (failure-free), one change at U(100 s, 2700 s),
/// interface failures at rate lambda.
struct ExperimentConfig {
  SystemModel model = SystemModel::kFrodoThreeParty;
  double lambda = 0.0;
  std::uint64_t seed = 1;
  /// Node population (U Users / M Managers / R registries). The default
  /// spec reproduces the paper topology bit-identically.
  TopologySpec topology{};
  sim::SimTime duration = sim::seconds(5400);
  sim::SimTime change_min = sim::seconds(100);
  sim::SimTime change_max = sim::seconds(2700);
  /// Keep the structured trace (event log) - off for metric sweeps.
  bool record_trace = false;
  /// Episode placement; see net::FailurePlacement and DESIGN.md decision 1.
  net::FailurePlacement failure_placement = net::FailurePlacement::kFitInside;
  /// Outage episodes per node (total downtime stays lambda * duration).
  int failure_episodes = 1;
  /// Horizon the failure plan is drawn over; 0 means `duration`. Setting
  /// it shorter than `duration` guarantees restored connectivity before
  /// the deadline - used by the eventual-consistency property tests.
  sim::SimTime failure_horizon = 0;
  /// Independent per-delivery message-loss probability - the companion
  /// study's communication-failure model [25]; 0 in the paper's
  /// interface-failure experiments.
  double message_loss_rate = 0.0;
  /// Streams every trace record as it is appended (e.g. to a JSONL
  /// file). Setting it turns trace recording on for the run even when
  /// `record_trace` is false; in that streamed-only mode the log skips
  /// in-memory storage but still maintains the fingerprint. Not owned;
  /// must outlive the run.
  sim::TraceWriter* trace_writer = nullptr;
  /// Online consistency oracle (src/check). When set, the run installs
  /// it as the trace writer (tee-ing to `trace_writer`), wire probe and
  /// observer hook sink, and arms it with the failure plan. Recording is
  /// forced on for the run; the oracle itself never records, so trace
  /// fingerprints are unchanged. Not owned; must outlive the run, and
  /// the caller collects the verdict via oracle->finish().
  check::ConsistencyOracle* oracle = nullptr;
  /// Wall-clock profiler (sdcm/obs/profiler.hpp). When set, the run
  /// attaches it to the simulator (per-event attribution needs a
  /// -DSDCM_PROFILE=ON build; phase timers work in every build) and
  /// records the setup/loop/extract phase hierarchy into it. Purely an
  /// observer: golden trace fingerprints are unchanged. Not owned; must
  /// outlive the run. One profiler per run - the sweep's concurrent
  /// runs must not share one (with a ProfileSink each gets its own).
  obs::Profiler* profiler = nullptr;
  /// Synthetic workload layered on top of the paper scenario: node churn,
  /// announcement storms, or link saturation (kStatic leaves the run
  /// untouched, bit-identical to the pre-workload traces). See
  /// sdcm/experiment/workload.hpp and DESIGN.md section 11.
  WorkloadSpec workload{};

  /// Per-protocol model parameters; edit for ablation experiments
  /// (e.g. frodo.enable_pr1 = false reproduces Figure 7's control).
  upnp::UpnpConfig upnp{};
  jini::JiniConfig jini{};
  frodo::FrodoConfig frodo{};
  mdns::MdnsConfig mdns{};
};

/// Builds the topology for `config.model`, injects the failure plan,
/// schedules the change, runs to the horizon and extracts the RunRecord
/// the Update Metrics consume. Node ids follow the TopologyLayout
/// (protocol_registry.hpp): registries 1..R, managers from
/// max(10, R+1), users after the managers - at the default spec that
/// is registries 1-2, manager 10, users 11..10+N.
metrics::RunRecord run_experiment(const ExperimentConfig& config);

/// run_experiment plus the run's full trace log (recording is forced
/// on), moved out of the simulator after the horizon.
struct TracedExperiment {
  metrics::RunRecord record;
  sim::TraceLog trace;
};

TracedExperiment run_experiment_traced(const ExperimentConfig& config);

}  // namespace sdcm::experiment
