// sdcm_logs: single-run event-log analysis - the paper's methodology in
// a tool. Section 6: "The results we present ... is a product of a
// detailed analysis on a random selection of 5 to 10 event logs (out of
// 30 logs) for each simulated system, at every failure rate."
//
// Runs one experiment with trace recording on, then prints the run in
// the paper's own log style (failure windows, the change, per-user
// consistency outcomes), a recovery-technique attribution summary, and
// on request the causal propagation tree, the full event log, or a
// JSONL export of the trace.
//
//   $ sdcm_logs UPnP 0.15 7                 # system, lambda, seed
//   $ sdcm_logs FRODO-3party 0.15 7 --tree  # the change's fan-out tree
//   $ sdcm_logs FRODO-2party 0.45 3 --full --export=run.jsonl
//   $ sdcm_logs --diff a.jsonl b.jsonl      # compare two exported runs
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string_view>
#include <vector>

#include "sdcm/experiment/cli.hpp"
#include "sdcm/experiment/profile.hpp"
#include "sdcm/experiment/protocol_registry.hpp"
#include "sdcm/experiment/scenario.hpp"
#include "sdcm/frodo/messages.hpp"
#include "sdcm/jini/messages.hpp"
#include "sdcm/mdns/mdns.hpp"
#include "sdcm/net/failure_model.hpp"
#include "sdcm/obs/span_tree.hpp"
#include "sdcm/obs/trace_jsonl.hpp"
#include "sdcm/upnp/messages.hpp"

namespace {

using namespace sdcm;

struct TechniqueSummary {
  const sim::TraceTag* tag;
  const char* meaning;
};

// Trace tags attributed to recovery techniques, per protocol family.
constexpr TechniqueSummary kAttribution[] = {
    {&frodo::tag::kSrn2Marked, "SRN1 exhausted; User marked inconsistent"},
    {&frodo::tag::kSrn2Retry, "SRN2: update re-sent on lease renewal"},
    {&frodo::tag::kUpdateCentralRetry, "Manager re-synced a stale Central"},
    {&frodo::tag::kResubscribeRequest, "PR3/PR4: resubscription requested"},
    {&frodo::tag::kNotifyTx, "PR1: Registry notified an interest"},
    {&frodo::tag::kManagerPurged, "PR5: User purged the Manager"},
    {&frodo::tag::kBackupTakeover, "Backup promoted itself to Central"},
    {&jini::tag::kEventRex, "remote event delivery failed (REX)"},
    {&jini::tag::kRegistryPurged, "lookup service purged (rediscovery next)"},
    {&jini::tag::kEventLapsed, "PR3: event lease error forced rediscovery"},
    {&upnp::tag::kSubscriberPurged, "failed NOTIFY cancelled a subscription"},
    {&upnp::tag::kRenewRejected, "PR4: renewal rejected, resubscribing"},
    {&upnp::tag::kManagerPurged, "PR5: cache lease expired, rediscovering"},
    {&upnp::tag::kGetRex, "description fetch failed (REX)"},
    {&mdns::tag::kRecordPurged, "PR5: record TTL expired, re-querying"},
    {&mdns::tag::kQueryTx, "multicast query (discovery / rediscovery)"},
    {&net::tag::kTcpRex, "TCP connection setup gave up (REX)"},
};

int usage() {
  std::fprintf(
      stderr,
      "usage: sdcm_logs <system> <lambda> <seed> [flags]\n"
      "       sdcm_logs --diff <a.jsonl> <b.jsonl>\n"
      "       sdcm_logs --profile-table <profile.jsonl>\n"
      "       sdcm_logs --profile-diff <a.jsonl> <b.jsonl>\n"
      "  systems: %s\n"
      "  lambda: interface failure rate in [0, 1]; seed: unsigned integer\n"
      "  --full           print the full event log\n"
      "  --tree[=SPAN]    print the causal propagation tree rooted at SPAN\n"
      "                   (default: the run's service-change record)\n"
      "  --profile        attach the wall-clock profiler to the run and\n"
      "                   print the top-N attribution table (per-event\n"
      "                   rows need a -DSDCM_PROFILE=ON build)\n"
      "  --export=FILE    write the run's trace as JSONL ('-' = stdout)\n"
      "  --diff A B       compare two exported traces: fingerprints and\n"
      "                   the first diverging record (no simulation)\n"
      "  --profile-table F  render a campaign profile JSONL (sdcm_sweep\n"
      "                   --profile) as the top-N table (no simulation)\n"
      "  --profile-diff A B  compare two campaign profiles: ns/event side\n"
      "                   by side with relative change (no simulation)\n",
      experiment::model_name_list().c_str());
  return 2;
}

/// True when the two records describe the same simulated behaviour
/// (the fingerprint's field set; span ids are derived metadata).
bool same_behaviour(const sim::TraceRecord& a, const sim::TraceRecord& b) {
  return a.at == b.at && a.node == b.node && a.category == b.category &&
         a.event == b.event && a.detail == b.detail;
}

int diff_traces(const char* path_a, const char* path_b) {
  sim::TraceLog logs[2];
  const char* paths[2] = {path_a, path_b};
  for (int i = 0; i < 2; ++i) {
    std::ifstream in(paths[i]);
    if (!in) {
      std::fprintf(stderr, "error: cannot read %s\n", paths[i]);
      return 1;
    }
    std::string error;
    if (!obs::read_trace_jsonl(in, logs[i], error)) {
      std::fprintf(stderr, "error: %s: %s\n", paths[i], error.c_str());
      return 1;
    }
  }
  for (int i = 0; i < 2; ++i) {
    std::printf("%s: %llu records, fingerprint 0x%016llx\n", paths[i],
                static_cast<unsigned long long>(logs[i].appended()),
                static_cast<unsigned long long>(logs[i].fingerprint()));
  }
  if (logs[0].fingerprint() == logs[1].fingerprint()) {
    std::printf("traces are identical\n");
    return 0;
  }
  const auto& a = logs[0].records();
  const auto& b = logs[1].records();
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (!same_behaviour(a[i], b[i])) {
      std::printf("first divergence at record %zu:\n", i);
      for (const auto* r : {&a[i], &b[i]}) {
        std::printf("  %c: [%s] node %u %s  %s\n", r == &a[i] ? 'a' : 'b',
                    sim::format_time(r->at).c_str(), r->node,
                    std::string(r->event.str()).c_str(),
                    sim::detail_text(r->event, r->detail).c_str());
      }
      return 3;
    }
  }
  std::printf("one trace is a prefix of the other; records %zu.. only in "
              "%s\n",
              common, a.size() > b.size() ? path_a : path_b);
  return 3;
}

int load_profile(const char* path, experiment::CampaignProfile& profile) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", path);
    return 1;
  }
  std::string error;
  if (!experiment::read_profile_jsonl(in, profile, error)) {
    std::fprintf(stderr, "error: %s: %s\n", path, error.c_str());
    return 1;
  }
  return 0;
}

int profile_table(const char* path) {
  experiment::CampaignProfile profile;
  if (const int rc = load_profile(path, profile); rc != 0) return rc;
  experiment::write_profile_table(std::cout, profile, 20);
  std::cout.flush();
  return 0;
}

int profile_diff(const char* path_a, const char* path_b) {
  experiment::CampaignProfile a;
  experiment::CampaignProfile b;
  if (const int rc = load_profile(path_a, a); rc != 0) return rc;
  if (const int rc = load_profile(path_b, b); rc != 0) return rc;
  const std::size_t drifted =
      experiment::write_profile_diff(std::cout, a, b, 0.10);
  std::printf("%zu row(s) moved by more than 10%%\n", drifted);
  std::cout.flush();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string_view(argv[1]) == "--diff") {
    if (argc != 4) return usage();
    return diff_traces(argv[2], argv[3]);
  }
  if (argc >= 2 && std::string_view(argv[1]) == "--profile-table") {
    if (argc != 3) return usage();
    return profile_table(argv[2]);
  }
  if (argc >= 2 && std::string_view(argv[1]) == "--profile-diff") {
    if (argc != 4) return usage();
    return profile_diff(argv[2], argv[3]);
  }
  if (argc < 4) return usage();
  const auto model = experiment::cli::model_from_name(argv[1]);
  if (!model) {
    std::fprintf(stderr, "unknown system '%s'\n", argv[1]);
    return 2;
  }
  double lambda = 0.0;
  // The rule SweepConfig::validate applies; the negated form rejects NaN.
  if (!experiment::cli::parse_double(argv[2], lambda) ||
      !(lambda >= 0.0 && lambda <= 1.0)) {
    std::fprintf(stderr, "lambda '%s' must lie in [0, 1]\n\n", argv[2]);
    return usage();
  }
  std::uint64_t seed = 0;
  if (!experiment::cli::parse_u64(argv[3], seed)) {
    std::fprintf(stderr, "seed '%s' is not an unsigned integer\n\n", argv[3]);
    return usage();
  }

  bool full = false;
  bool tree = false;
  bool profile = false;
  sim::SpanId tree_root = sim::kNoSpan;
  std::string export_path;
  for (int i = 4; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--full") {
      full = true;
    } else if (arg == "--tree") {
      tree = true;
    } else if (arg.rfind("--tree=", 0) == 0) {
      tree = true;
      if (!experiment::cli::parse_u64(arg.substr(7), tree_root)) {
        std::fprintf(stderr, "--tree needs a numeric span id\n\n");
        return usage();
      }
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg.rfind("--export=", 0) == 0) {
      export_path = std::string(arg.substr(9));
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n\n", argv[i]);
      return usage();
    }
  }

  experiment::ExperimentConfig config;
  config.model = *model;
  config.lambda = lambda;
  config.seed = seed;
  config.record_trace = true;
  sdcm::obs::Profiler profiler;
  if (profile) config.profiler = &profiler;

  // The failure plan is printed from a separate reproduction: identical
  // forked streams draw the identical plan run_experiment_traced applies.
  sim::Simulator planner(seed);
  auto failure_rng = planner.rng().fork("experiment.failures");
  const std::vector<sim::NodeId> node_ids =
      experiment::topology_node_ids(*model, config.topology);
  net::FailurePlanConfig plan_config;
  plan_config.lambda = lambda;
  const auto plan = net::plan_failures(node_ids, plan_config, failure_rng);

  std::printf("=== %s at %.0f%% interface failure, seed %llu ===\n",
              argv[1], lambda * 100.0,
              static_cast<unsigned long long>(seed));
  std::printf("\nfailure schedule (the paper's log style):\n");
  for (const auto& ep : plan) {
    std::printf("  node%-3u %-5s down at %.0f, up at %.0f%s\n", ep.node,
                std::string(to_string(ep.mode)).c_str(),
                sim::to_seconds(ep.start), sim::to_seconds(ep.end()),
                ep.end() > config.duration ? "  (past end of run)" : "");
  }

  const auto traced = experiment::run_experiment_traced(config);
  const metrics::RunRecord& record = traced.record;
  std::printf("\nservice changes at %.0f, deadline %.0f\n",
              sim::to_seconds(record.change_time),
              sim::to_seconds(config.duration));
  std::printf("\nper-user outcome:\n");
  for (std::size_t j = 0; j < record.user_reach_times.size(); ++j) {
    const auto& reach = record.user_reach_times[j];
    if (reach.has_value()) {
      std::printf("  user %zu consistent at %.1f (latency %.1f s)\n", j,
                  sim::to_seconds(*reach),
                  sim::to_seconds(*reach - record.change_time));
    } else {
      std::printf("  user %zu NEVER regained consistency "
                  "(Configuration Update Principles violated)\n",
                  j);
    }
  }
  std::printf("\nupdate messages: %llu   window messages (y): %llu\n",
              static_cast<unsigned long long>(record.update_messages),
              static_cast<unsigned long long>(record.window_messages));
  // UDP drops are split by unit (see KernelStats): tx kills a wire
  // copy, rx kills one per-destination delivery; skipped counts the
  // deliveries interest scoping never performed.
  std::printf("kernel: udp sent %llu, copies dropped tx %llu, deliveries "
              "dropped rx %llu, deliveries skipped %llu; tcp sent %llu, "
              "dropped %llu\n",
              static_cast<unsigned long long>(record.kernel.udp_sent),
              static_cast<unsigned long long>(
                  record.kernel.udp_copies_dropped_tx),
              static_cast<unsigned long long>(
                  record.kernel.udp_deliveries_dropped_rx),
              static_cast<unsigned long long>(
                  record.kernel.udp_deliveries_skipped),
              static_cast<unsigned long long>(record.kernel.tcp_sent),
              static_cast<unsigned long long>(record.kernel.tcp_dropped));
  std::printf("trace: %llu records, fingerprint 0x%016llx\n",
              static_cast<unsigned long long>(traced.trace.appended()),
              static_cast<unsigned long long>(record.trace_fingerprint));

  std::printf("\nrecovery-technique attribution:\n");
  for (const auto& entry : kAttribution) {
    const std::size_t count = traced.trace.count_event(entry.tag->atom());
    if (count > 0) {
      std::printf("  %4zu x %-28s %s\n", count,
                  std::string(entry.tag->name()).c_str(), entry.meaning);
    }
  }

  if (tree) {
    const auto forest = obs::build_span_forest(traced.trace.records());
    std::size_t root_index = forest.nodes.size();
    if (tree_root != sim::kNoSpan) {
      const auto it = forest.by_span.find(tree_root);
      if (it == forest.by_span.end()) {
        std::fprintf(stderr, "error: no record has span %llu\n",
                     static_cast<unsigned long long>(tree_root));
        return 1;
      }
      root_index = it->second;
    } else {
      // The change record every model roots its update fan-out under.
      for (std::size_t i = 0; i < forest.nodes.size(); ++i) {
        if (sim::trace_role(forest.nodes[i].record->event) ==
            sim::TraceRole::kServiceChanged) {
          root_index = i;
          break;
        }
      }
      if (root_index == forest.nodes.size()) {
        std::fprintf(stderr,
                     "error: no service-change record in this run's trace\n");
        return 1;
      }
    }
    std::printf("\ncausal propagation tree (per-edge latency in us; edge "
                "latencies\nalong a root-to-leaf path sum to that leaf's "
                "total delay):\n");
    obs::print_span_tree(std::cout, forest, root_index);
    std::cout.flush();
  }

  if (profile) {
    std::printf("\nwall-clock profile:\n");
#if !SDCM_PROFILE_ENABLED
    std::printf("  (phase timers only - rebuild with -DSDCM_PROFILE=ON for "
                "per-event attribution)\n");
#endif
    experiment::CampaignProfile campaign;
    campaign.add(experiment::to_string(*model), profiler.snapshot());
    std::fflush(stdout);
    experiment::write_profile_table(std::cout, campaign, 20);
    std::cout.flush();
  }

  if (!export_path.empty()) {
    std::ofstream file;
    std::ostream* out = &std::cout;
    if (export_path != "-") {
      file.open(export_path, std::ios::trunc);
      if (!file) {
        std::fprintf(stderr, "error: cannot write %s\n", export_path.c_str());
        return 1;
      }
      out = &file;
    }
    obs::JsonlTraceWriter writer(*out);
    for (const sim::TraceRecord& r : traced.trace.records()) {
      writer.on_record(r);
    }
    out->flush();
    if (export_path != "-") {
      std::fprintf(stderr, "wrote %s: %llu records, %llu bytes\n",
                   export_path.c_str(),
                   static_cast<unsigned long long>(writer.records_written()),
                   static_cast<unsigned long long>(writer.bytes_written()));
    }
  }

  if (full) {
    std::printf("\n=== full event log ===\n");
    traced.trace.print(std::cout);
  }
  return 0;
}
