// Workload engine bench: throughput and message-drop behaviour of the
// simulator at rest (the paper's static scenario) versus under the three
// synthetic workloads (churn, announcement storm, link saturation), plus
// the storm-mitigation claim - jittering announce intervals sheds the
// thundering herd, so the saturated network drops fewer messages with
// mitigation than without (the reason mDNS and phoenix-discovery stagger
// their announcements).
//
// Artifacts: BENCH_workloads.json (override with SDCM_BENCH_JSON), with
// per-workload events/sec and drop counters for tools/bench_compare.py.
// SDCM_BENCH_SMOKE shrinks the grid for CI; SDCM_RUNS overrides the runs
// per point. Exits 1 when a claim DIFFs.

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "sdcm/experiment/sweep.hpp"
#include "sdcm/experiment/workload.hpp"

using namespace sdcm;

namespace {

struct Measured {
  double events_per_sec = 0.0;
  double runs_per_sec = 0.0;
  std::uint64_t messages_dropped = 0;  // udp + tcp transport drops
  std::uint64_t capacity_dropped = 0;
  std::uint64_t capacity_delayed = 0;
  std::uint64_t capacity_queue_peak = 0;
};

Measured measure(const experiment::SweepConfig& base,
                 const experiment::WorkloadSpec& workload) {
  experiment::SweepConfig config = base;
  config.workload = workload;
  const experiment::SweepResult result = experiment::run_sweep(config);
  Measured out;
  out.events_per_sec = result.summary.events_per_second();
  out.runs_per_sec = result.summary.runs_per_second();
  out.messages_dropped = result.summary.kernel.messages_dropped();
  out.capacity_dropped = result.summary.kernel.capacity_dropped;
  out.capacity_delayed = result.summary.kernel.capacity_delayed;
  out.capacity_queue_peak = result.summary.kernel.capacity_queue_peak;
  return out;
}

void emit(bench::JsonWriter& json, std::string_view key, const Measured& m) {
  json.begin(key)
      .field("events_per_sec", m.events_per_sec)
      .field("runs_per_sec", m.runs_per_sec)
      .field("messages_dropped", m.messages_dropped)
      .field("capacity_dropped", m.capacity_dropped)
      .field("capacity_delayed", m.capacity_delayed)
      .field("capacity_queue_peak", m.capacity_queue_peak)
      .end();
}

void print(std::string_view label, const Measured& m) {
  std::printf("  %-12.*s %10.0f ev/s  %6.2f runs/s  dropped=%llu "
              "(capacity=%llu, delayed=%llu, queue_peak=%llu)\n",
              static_cast<int>(label.size()), label.data(), m.events_per_sec,
              m.runs_per_sec,
              static_cast<unsigned long long>(m.messages_dropped),
              static_cast<unsigned long long>(m.capacity_dropped),
              static_cast<unsigned long long>(m.capacity_delayed),
              static_cast<unsigned long long>(m.capacity_queue_peak));
}

}  // namespace

int main() {
  const bool smoke = experiment::env::bench_smoke();

  experiment::SweepConfig base;
  if (smoke) {
    base.models = {experiment::SystemModel::kMdns};
    base.lambdas = {0.3};
    base.runs = experiment::env::runs(2);
  } else {
    base.models = {experiment::SystemModel::kUpnp,
                   experiment::SystemModel::kJiniOneRegistry,
                   experiment::SystemModel::kMdns};
    base.lambdas = {0.0, 0.3};
    base.runs = experiment::env::runs(10);
  }
  base.threads = experiment::env::threads();

  bench::banner("workloads", "churn / storm / saturation workload engine");
  std::printf("models=%zu lambdas=%zu runs per point=%d (SDCM_RUNS "
              "overrides)\n",
              base.models.size(), base.lambdas.size(), base.runs);

  experiment::WorkloadSpec spec;
  const Measured at_rest = measure(base, spec);
  print("at-rest", at_rest);

  spec.kind = experiment::WorkloadKind::kChurn;
  const Measured churn = measure(base, spec);
  print("churn", churn);

  spec = experiment::WorkloadSpec{};
  spec.kind = experiment::WorkloadKind::kStorm;
  const Measured storm = measure(base, spec);
  print("storm", storm);

  spec = experiment::WorkloadSpec{};
  spec.kind = experiment::WorkloadKind::kSaturation;
  const Measured saturation = measure(base, spec);
  print("saturation", saturation);

  // The mitigation knob, isolated on the saturated network: the same
  // bursts, synchronized versus staggered over 30 s.
  spec.storm.mitigation_jitter = sim::seconds(30);
  const Measured mitigated = measure(base, spec);
  print("mitigated", mitigated);

  const bool at_rest_untouched = bench::check(
      at_rest.capacity_dropped == 0 && at_rest.capacity_delayed == 0,
      "the static scenario never touches the capacity path");
  const bool saturation_delays =
      bench::check(saturation.capacity_delayed > 0,
                   "saturation back-pressure delays burst traffic");
  const bool jitter_helps =
      bench::check(mitigated.capacity_dropped <= saturation.capacity_dropped,
                   "jittered announce intervals shed the thundering herd "
                   "(fewer capacity drops than the synchronized storm)");

  const char* json_path = std::getenv("SDCM_BENCH_JSON");
  const std::string path = (json_path != nullptr && *json_path != '\0')
                               ? json_path
                               : "BENCH_workloads.json";
  bench::JsonWriter json;
  json.begin()
      .field("bench", "workloads")
      .field("smoke", smoke)
      .field("runs_per_point", static_cast<std::uint64_t>(base.runs));
  emit(json, "at_rest", at_rest);
  emit(json, "churn", churn);
  emit(json, "storm", storm);
  emit(json, "saturation", saturation);
  emit(json, "mitigated", mitigated);
  json.begin("mitigation")
      .field("synchronized_drops", saturation.capacity_dropped)
      .field("jittered_drops", mitigated.capacity_dropped)
      .field("jitter_helps", jitter_helps)
      .end();
  json.end();
  if (!json.write_file(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return (at_rest_untouched && saturation_delays && jitter_helps) ? 0 : 1;
}
