// sdcm_bench: the benchmark program behind benchmark/run.py.
//
// It runs one named workload through the same public entry points a
// user's campaign goes through - experiment::run_sweep with the default
// SweepConfig (no mode flags, no multicast-scope override) - and times
// the calls from outside. Every mode starts with a second of untimed
// warm-up passes and ends by printing a JSON object of raw measurements
// as the last stdout line; run.py derives every metric from them:
//
//   --mode=timed   back-to-back timed passes until --seconds have
//                  elapsed, one line per pass with its run wall times
//                  and the set-up times of its sampled runs. Release
//                  builds only: refuses profiled, observed or sanitized
//                  builds.
//   --mode=layers  one plain pass (kernel counters, pool idle time) and
//                  the layer probes: the sim event loop, net multicast
//                  fan-out, obs JSONL rendering and the paper grid with
//                  and without the oracle. Same build rule.
//   --mode=traced  the same pass with a ProfileSink attached; needs a
//                  -DSDCM_PROFILE=ON build. Writes the campaign profile
//                  JSONL to --profile-out.
//
// Every run is checked: a run that throws, a static lambda = 0 run that
// misses the Table 2 message count or leaves a User stale, any oracle
// violation, or an export that rendered fewer records than the run
// traced counts as failed. See benchmark/README.md.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <ostream>
#include <set>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "sdcm/experiment/profile.hpp"
#include "sdcm/experiment/scenario.hpp"
#include "sdcm/experiment/sink.hpp"
#include "sdcm/experiment/sweep.hpp"
#include "sdcm/net/network.hpp"
#include "sdcm/obs/instrument.hpp"
#include "sdcm/obs/profiler.hpp"
#include "sdcm/obs/trace_jsonl.hpp"
#include "sdcm/sim/simulator.hpp"

#ifndef SDCM_BENCH_BUILD_TYPE
#define SDCM_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef SDCM_BENCH_SANITIZE
#define SDCM_BENCH_SANITIZE 0
#endif

using namespace sdcm;
using namespace sdcm::experiment;

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count());
}

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

/// One named workload. The grids are the paper's Section 5 campaign
/// (all six models x the 19-point lambda grid, 5 Users, static); every
/// pass draws fresh runs from --seed. churn_1e3 is FRODO-3party at
/// lambda = 0.3 under the default ChurnSpec with 1,000 Users, the
/// largest population the default multicast scope runs in seconds.
/// Every churn pass repeats the same four runs, those of kChurnSeed,
/// whatever --seed says: some churn runs turn into multicast storms
/// (seeds 1-5: 4 of 40 runs fired 22-117 M events against 14-20 M), so
/// a pass of four runs drawn from --seed would measure how many storms
/// it drew. kChurnSeed's runs fire 15.5-17.2 M events each. Pass sizes
/// are runs per point.
struct Workload {
  std::string_view name;
  bool paper_grid = true;
  bool checked = false;  // CheckSink on every run
  bool exports = false;  // every record rendered to JSONL
  int timed_runs = 0;  // one warm-up or timed pass
  int layer_runs = 0;  // the plain and traced passes
  int setup_runs = 0;  // runs per point whose set-up time is sampled
};

constexpr Workload kWorkloads[] = {
    {"paper_grid", true, false, false, 100, 30, 1},
    {"paper_grid_checked", true, true, false, 100, 30, 1},
    {"trace_export", true, false, true, 50, 30, 1},
    {"churn_1e3", false, false, false, 4, 4, 4},
};

constexpr std::uint64_t kChurnSeed = 20060425;

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

SweepConfig make_config(const Workload& w, int runs,
                        std::uint64_t master_seed, std::size_t threads) {
  SweepConfig config;
  config.master_seed = master_seed;
  if (!w.paper_grid) {
    config.models = {SystemModel::kFrodoThreeParty};
    config.lambdas = {0.3};
    config.topology.users = 1000;
    config.workload.kind = WorkloadKind::kChurn;
    config.master_seed = kChurnSeed;
  }
  config.runs = runs;
  config.threads = threads;
  return config;
}

/// Master seed of pass `k` on the grids; the plain and traced passes use
/// --seed itself (k = 0).
std::uint64_t pass_seed(std::uint64_t seed, std::uint64_t k) {
  return seed + k * 0x9E3779B97F4A7C15ULL;
}

// ---------------------------------------------------------------------
// One pass: a run_sweep call with the correctness gate attached
// ---------------------------------------------------------------------

struct Pass {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t violations = 0;
  std::uint64_t wall_ns = 0;
  std::vector<std::uint64_t> run_wall_ns;
  sim::KernelStats kernel;
};

/// Discards bytes; JsonlTraceWriter counts them itself.
class NullBuffer final : public std::streambuf {
 protected:
  int_type overflow(int_type c) override { return traits_type::not_eof(c); }
  std::streamsize xsputn(const char*, std::streamsize n) override {
    return n;
  }
};

/// trace_export's per-run JSONL writers, installed through `customize`
/// as each run's ExperimentConfig::trace_writer. They are the writer
/// TraceSink streams through (obs::JsonlTraceWriter), aimed at a null
/// stream: the workload times rendering every record, not the
/// filesystem under the checkout, whose spread would drown it (on a
/// 4-vCPU VM with TraceSink files, invocation medians ranged 2,400-3,500
/// runs/s on ext4 against 4,800-5,000 on tmpfs).
class Exports {
 public:
  /// Thread-safe; called on the worker thread before each run.
  sim::TraceWriter* open(std::uint64_t seed) {
    auto run = std::make_unique<Run>();
    sim::TraceWriter* writer = &run->writer;
    const std::lock_guard<std::mutex> lock(mutex_);
    if (!open_.emplace(seed, std::move(run)).second) {
      throw std::logic_error("two runs share seed " + std::to_string(seed));
    }
    return writer;
  }

  /// Closes the run's writer; false unless it rendered every record the
  /// run's kernel counted.
  bool close(std::uint64_t seed, std::uint64_t trace_records) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = open_.find(seed);
    if (it == open_.end()) return false;
    const bool ok = trace_records > 0 &&
                    it->second->writer.records_written() == trace_records;
    open_.erase(it);
    return ok;
  }

 private:
  struct Run {
    NullBuffer buffer;
    std::ostream out{&buffer};
    obs::JsonlTraceWriter writer{out};
  };

  std::mutex mutex_;  // guards open_
  std::map<std::uint64_t, std::unique_ptr<Run>> open_;
};

using RunKey = std::tuple<SystemModel, double, int>;

/// Benchmark-side RunSink: per-run wall clock, kernel totals, the
/// Table 2 gate on static lambda = 0 runs (the system's own zero-failure
/// update count, every User consistent before the deadline) and the
/// trace-export record count.
class BenchSink final : public RunSink {
 public:
  BenchSink(Pass& pass, std::set<RunKey>& failed, int users, bool gate,
            Exports* exports)
      : pass_(pass),
        failed_(failed),
        users_(users),
        gate_(gate),
        exports_(exports) {}

  void on_run(const RunEvent& event) override {
    pass_.run_wall_ns.push_back(event.wall_ns);
    const metrics::RunRecord& record = *event.record;
    sim::accumulate(pass_.kernel, record.kernel);
    if (exports_ != nullptr &&
        !exports_->close(event.seed, record.kernel.trace_records)) {
      fail(event, "trace export missed records");
    }
    if (!gate_ || event.lambda != 0.0) return;
    const std::uint64_t expected =
        minimum_update_messages(event.model, users_);
    if (record.update_messages != expected) {
      fail(event, std::to_string(record.update_messages) +
                      " update messages, Table 2 says " +
                      std::to_string(expected));
    }
    bool stale = record.user_reach_times.size() !=
                 static_cast<std::size_t>(users_);
    for (const auto& reach : record.user_reach_times) {
      if (!reach || *reach >= record.deadline) stale = true;
    }
    if (stale) fail(event, "a User missed the deadline at lambda = 0");
  }

 private:
  void fail(const RunEvent& event, const std::string& why) {
    failed_.insert(RunKey{event.model, event.lambda, event.run});
    std::fprintf(stderr, "sdcm_bench: FAIL %s lambda=%g run=%d seed=%llu: %s\n",
                 std::string(to_string(event.model)).c_str(), event.lambda,
                 event.run, static_cast<unsigned long long>(event.seed),
                 why.c_str());
  }

  Pass& pass_;
  std::set<RunKey>& failed_;
  int users_;
  bool gate_;
  Exports* exports_;
};

/// Runs one sweep with the workload's sinks and the correctness gate.
Pass run_pass(const Workload& w, SweepConfig config,
              ProfileSink* profile = nullptr) {
  Pass pass;
  pass.attempted = config.models.size() * config.lambdas.size() *
                   static_cast<std::uint64_t>(config.runs);
  std::set<RunKey> failed;
  std::optional<Exports> exports;
  if (w.exports) {
    exports.emplace();
    config.customize = [&exports = *exports, inner = config.customize](
                           ExperimentConfig& run) {
      if (inner) inner(run);
      run.trace_writer = exports.open(run.seed);
    };
  }
  BenchSink sink(pass, failed, config.topology.users,
                 config.workload.kind == WorkloadKind::kStatic,
                 exports ? &*exports : nullptr);
  config.sink = &sink;
  std::optional<CheckSink> checks;
  if (w.checked) {
    checks.emplace();
    config.check_sink = &*checks;
  }
  config.profile_sink = profile;

  const Clock::time_point start = Clock::now();
  try {
    run_sweep(config);
  } catch (const std::exception& e) {
    // The pool finishes every other run; those without a sink callback
    // are the ones that threw.
    std::fprintf(stderr, "sdcm_bench: FAIL a run threw: %s\n", e.what());
  }
  pass.wall_ns = ns_since(start);

  if (checks) {
    pass.violations = checks->violation_total();
    for (const CheckSink::CampaignViolation& v : checks->violations()) {
      failed.insert(RunKey{v.model, v.lambda, v.run});
    }
    if (pass.violations > 0) checks->write_report(std::cerr);
  }
  pass.failed = failed.size() + (pass.attempted - pass.run_wall_ns.size());
  return pass;
}

// ---------------------------------------------------------------------
// Layer probes
// ---------------------------------------------------------------------

/// sim: 2 M dispatches spread over 32 self-rescheduling chains (a
/// paper-run-sized heap); wall ns per schedule + dispatch.
double probe_sim_loop_ns() {
  constexpr int kChains = 32;
  constexpr std::uint64_t kPerChain = 62'500;
  struct Step {
    sim::Simulator* simulator;
    std::uint64_t left;
    void operator()() const {
      if (left > 1) simulator->schedule_in(1, Step{simulator, left - 1});
    }
  };
  sim::Simulator simulator(1);
  simulator.trace().set_recording(false);
  for (int c = 0; c < kChains; ++c) {
    simulator.schedule_at(c, Step{&simulator, kPerChain});
  }
  const Clock::time_point start = Clock::now();
  simulator.run_all();
  const std::uint64_t ns = ns_since(start);
  return static_cast<double>(ns) /
         static_cast<double>(simulator.kernel_stats().events_fired);
}

/// A probe receiver: interested either in the hub's ping or in a type
/// nobody sends.
class Spoke final : public net::MessageSink {
 public:
  bool interested = false;
  std::uint64_t received = 0;

  void handle_message(const net::Message&) override { ++received; }
  [[nodiscard]] std::optional<std::vector<net::MessageType>>
  multicast_interests() const override {
    return std::vector<net::MessageType>{net::MessageType::intern(
        interested ? "bench.fanout.ping" : "bench.fanout.other")};
  }
};

/// net: a hub multicasting to 1,000 sinks, 16 of them interested, under
/// the network's default scope; wall ns per (round x destination).
/// Returns nullopt when the deliveries do not add up.
std::optional<double> probe_fanout_ns_per_dest() {
  constexpr int kSinks = 1000;
  constexpr int kInterested = 16;
  constexpr int kRounds = 2000;
  sim::Simulator simulator(1);
  simulator.trace().set_recording(false);
  net::Network network(simulator);
  network.reserve_nodes(kSinks + 1);
  std::vector<Spoke> spokes(kSinks + 1);
  for (int i = 1; i <= kInterested; ++i) {
    spokes[static_cast<std::size_t>(i)].interested = true;
  }
  for (std::size_t i = 0; i < spokes.size(); ++i) {
    network.attach(static_cast<sim::NodeId>(i + 1), spokes[i]);
  }
  const net::MessageType ping = net::MessageType::intern("bench.fanout.ping");
  for (int r = 0; r < kRounds; ++r) {
    simulator.schedule_at(sim::seconds(r + 1), [&network, ping] {
      net::Message m;
      m.src = 1;
      m.type = ping;
      m.klass = net::MessageClass::kUpdate;
      network.multicast(m);
    });
  }
  const Clock::time_point start = Clock::now();
  simulator.run_until(sim::seconds(kRounds + 2));
  const std::uint64_t ns = ns_since(start);
  std::uint64_t delivered = 0;
  for (const Spoke& s : spokes) delivered += s.received;
  if (delivered != static_cast<std::uint64_t>(kRounds) * kInterested) {
    std::fprintf(stderr, "sdcm_bench: FAIL fan-out probe delivered %llu\n",
                 static_cast<unsigned long long>(delivered));
    return std::nullopt;
  }
  return static_cast<double>(ns) /
         (static_cast<double>(kRounds) * static_cast<double>(kSinks));
}

struct JsonlProbe {
  std::uint64_t records = 0;
  std::uint64_t bytes = 0;
  std::uint64_t ns = 0;
};

/// obs: one traced lambda = 0.3 run per model, replayed through
/// obs::JsonlTraceWriter into a null stream until 1 M records rendered.
JsonlProbe probe_jsonl(std::uint64_t seed) {
  std::vector<sim::TraceRecord> records;
  for (const SystemModel model : kAllModels) {
    ExperimentConfig config;
    config.model = model;
    config.lambda = 0.3;
    config.seed = run_seed(seed, model, 6, 0);
    const TracedExperiment traced = run_experiment_traced(config);
    records.insert(records.end(), traced.trace.records().begin(),
                   traced.trace.records().end());
  }
  NullBuffer buffer;
  std::ostream out(&buffer);
  obs::JsonlTraceWriter writer(out);
  const Clock::time_point start = Clock::now();
  while (writer.records_written() < 1'000'000) {
    for (const sim::TraceRecord& record : records) writer.on_record(record);
  }
  JsonlProbe probe;
  probe.ns = ns_since(start);
  probe.records = writer.records_written();
  probe.bytes = writer.bytes_written();
  return probe;
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

/// Appends JSON fields to one object; doubles keep 17 significant
/// digits so run.py sees every digit measured.
class Json {
 public:
  Json() : out_("{") {}

  Json& u64(std::string_view key, std::uint64_t value) {
    this->key(key);
    append(value);
    return *this;
  }
  Json& str(std::string_view key, std::string_view value) {
    this->key(key);
    quote(value);
    return *this;
  }
  template <typename T>
  Json& list(std::string_view key, const std::vector<T>& values) {
    this->key(key);
    out_ += '[';
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out_ += ',';
      append(values[i]);
    }
    out_ += ']';
    return *this;
  }
  Json& open(std::string_view key) {
    this->key(key);
    out_ += '{';
    return *this;
  }
  Json& close() {
    out_ += '}';
    return *this;
  }
  [[nodiscard]] std::string done() const { return out_ + "}\n"; }

 private:
  void append(std::uint64_t value) { out_ += std::to_string(value); }
  void append(double value) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out_ += buf;
  }
  void key(std::string_view key) {
    if (out_.back() != '{') out_ += ',';
    quote(key);
    out_ += ':';
  }
  void quote(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') out_ += '\\';
      out_ += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    out_ += '"';
  }

  std::string out_;
};

std::uint64_t sum(const std::vector<std::uint64_t>& values) {
  std::uint64_t total = 0;
  for (const std::uint64_t v : values) total += v;
  return total;
}

// ---------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------

enum class Mode { kTimed, kLayers, kTraced };

struct Options {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0.0;  // timed mode only
  Mode mode = Mode::kTimed;
  std::string profile_out;  // traced mode only
};

/// Why this binary must not produce numbers in `mode`, if it must not.
std::optional<std::string> build_problem(Mode mode) {
  if (std::string_view(SDCM_BENCH_BUILD_TYPE) != "Release") {
    return "build type is '" SDCM_BENCH_BUILD_TYPE "', not Release";
  }
  if (SDCM_BENCH_SANITIZE != 0) return "sanitized build";
  if (SDCM_OBS_ENABLED != 0) return "-DSDCM_OBS=ON build";
  if (mode == Mode::kTraced) {
    if (SDCM_PROFILE_ENABLED == 0) return "traced mode needs -DSDCM_PROFILE=ON";
  } else if (SDCM_PROFILE_ENABLED != 0) {
    return "timed passes refuse a -DSDCM_PROFILE=ON build";
  }
  return std::nullopt;
}

Json header(const Options& opt, std::size_t threads) {
  Json json;
  json.str("workload", opt.workload->name)
      .u64("seed", opt.seed)
      .u64("threads", threads)
      .open("build")
      .str("type", SDCM_BENCH_BUILD_TYPE)
      .u64("profile", SDCM_PROFILE_ENABLED)
      .u64("obs", SDCM_OBS_ENABLED)
      .u64("sanitize", SDCM_BENCH_SANITIZE)
      .close();
  return json;
}

void add_counts(Pass& total, const Pass& pass) {
  total.attempted += pass.attempted;
  total.failed += pass.failed;
  total.violations += pass.violations;
}

/// Peak resident set of this process image in kB (VmHWM). getrusage's
/// ru_maxrss would not do: Linux carries it across exec, so it reports
/// at least the launching process's footprint.
std::uint64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.starts_with("VmHWM:")) return std::stoull(line.substr(6));
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Untimed passes until a second of runs has gone by: in a cold process
/// the first one-second grid pass measured ~40% slower than the rest.
/// Seeds are pass_seed(seed, 1), (seed, 2), ...; returns the next pass
/// index.
std::uint64_t warm_up(const Workload& w, std::uint64_t seed,
                      std::size_t threads, Pass& total) {
  std::uint64_t k = 1;
  for (std::uint64_t warm_ns = 0; warm_ns < 1'000'000'000; ++k) {
    const Pass pass =
        run_pass(w, make_config(w, w.timed_runs, pass_seed(seed, k), threads));
    add_counts(total, pass);
    warm_ns += pass.wall_ns;
  }
  return k;
}

/// run_pass that also samples per-run set-up time (topology build +
/// failure plan + workload plan) into `setup_ns`. Only runs
/// 0..w.setup_runs-1 of every point get a phase-timer profiler: its
/// memory sampling takes the allocator's arena locks, which would slow
/// the other threads' runs if every run had one.
Pass run_sampled_pass(const Workload& w, SweepConfig config,
                      std::vector<std::uint64_t>& setup_ns) {
  std::set<std::uint64_t> sampled;
  for (const SystemModel model : config.models) {
    for (std::size_t li = 0; li < config.lambdas.size(); ++li) {
      for (int run = 0; run < w.setup_runs; ++run) {
        sampled.insert(run_seed(config.master_seed, model, li, run));
      }
    }
  }
  std::mutex mutex;
  std::vector<std::unique_ptr<obs::Profiler>> profilers;
  config.customize = [&](ExperimentConfig& run) {
    if (!sampled.contains(run.seed)) return;
    auto profiler = std::make_unique<obs::Profiler>();
    run.profiler = profiler.get();
    const std::lock_guard<std::mutex> lock(mutex);
    profilers.push_back(std::move(profiler));
  };
  const Pass pass = run_pass(w, config);
  for (const auto& profiler : profilers) {
    std::uint64_t ns = 0;
    for (const obs::PhaseEntry& phase : profiler->snapshot().phases) {
      if (phase.name == "phase.topology_build" ||
          phase.name == "phase.failure_plan" ||
          phase.name == "phase.workload_plan") {
        ns += phase.total_ns;
      }
    }
    setup_ns.push_back(ns);
  }
  return pass;
}

std::string run_timed(const Options& opt, std::size_t threads) {
  const Workload& w = *opt.workload;
  Pass total;
  std::uint64_t k = warm_up(w, opt.seed, threads, total);

  const Clock::time_point start = Clock::now();
  std::uint64_t last_ns = 0;
  for (bool first = true;; first = false, ++k) {
    // Closed loop: the next pass starts when the previous one ends, and
    // none starts that would (at the last pass's length) end past
    // --seconds.
    const double projected = static_cast<double>(ns_since(start) + last_ns);
    if (!first && projected > opt.seconds * 1e9) break;
    std::vector<std::uint64_t> setup_ns;
    const Pass pass = run_sampled_pass(
        w, make_config(w, w.timed_runs, pass_seed(opt.seed, k), threads),
        setup_ns);
    add_counts(total, pass);
    last_ns = pass.wall_ns;
    // One line per pass, so this process's own memory - part of
    // peak_rss_kb - does not grow with the number of passes.
    Json line;
    line.u64("runs", pass.run_wall_ns.size())
        .u64("wall_ns", pass.wall_ns)
        .list("run_wall_ns", pass.run_wall_ns)
        .list("setup_ns", setup_ns);
    std::fputs(line.done().c_str(), stdout);
  }

  Json json = header(opt, threads);
  json.str("mode", "timed")
      .u64("attempted", total.attempted)
      .u64("failed", total.failed)
      .u64("violations", total.violations)
      .u64("peak_rss_kb", peak_rss_kb());
  return json.done();
}

std::string run_layers(const Options& opt, std::size_t threads) {
  const Workload& w = *opt.workload;
  Pass total;
  warm_up(w, opt.seed, threads, total);
  const Pass pass =
      run_pass(w, make_config(w, w.layer_runs, opt.seed, threads));
  add_counts(total, pass);

  std::vector<double> sim_loop_ns;
  std::vector<double> fanout_ns;
  for (int rep = 0; rep < 5; ++rep) {
    sim_loop_ns.push_back(probe_sim_loop_ns());
    ++total.attempted;
    if (const std::optional<double> fanout = probe_fanout_ns_per_dest()) {
      fanout_ns.push_back(*fanout);
    } else {
      ++total.failed;
    }
  }
  const JsonlProbe jsonl = probe_jsonl(opt.seed);
  // The oracle's cost on the paper grid: the plain passes of paper_grid
  // and paper_grid_checked, which share their seeds. A grid workload's
  // own plain pass is one of the two.
  const auto grid_pass = [&](const Workload& grid) {
    if (&grid == &w) return pass;
    const Pass extra =
        run_pass(grid, make_config(grid, grid.layer_runs, opt.seed, threads));
    add_counts(total, extra);
    return extra;
  };
  const Pass plain = grid_pass(kWorkloads[0]);
  const Pass checked = grid_pass(kWorkloads[1]);

  const sim::KernelStats& k = pass.kernel;
  Json json = header(opt, threads);
  json.str("mode", "layers")
      .u64("attempted", total.attempted)
      .u64("failed", total.failed)
      .u64("violations", total.violations)
      .u64("runs", pass.run_wall_ns.size())
      .u64("wall_ns", pass.wall_ns)
      .u64("run_wall_ns_total", sum(pass.run_wall_ns))
      .open("kernel")
      .u64("events_fired", k.events_fired)
      .u64("events_cancelled", k.events_cancelled)
      .u64("peak_heap_size", k.peak_heap_size)
      .u64("callback_heap_allocs", k.callback_heap_allocs)
      .u64("udp_sent", k.udp_sent)
      .u64("tcp_sent", k.tcp_sent)
      .u64("messages_dropped", k.messages_dropped())
      .u64("udp_deliveries_skipped", k.udp_deliveries_skipped)
      .u64("trace_records", k.trace_records)
      .close()
      .open("probes")
      .list("sim_loop_ns_per_event", sim_loop_ns)
      .list("fanout_ns_per_dest", fanout_ns)
      .u64("jsonl_records", jsonl.records)
      .u64("jsonl_bytes", jsonl.bytes)
      .u64("jsonl_ns", jsonl.ns)
      .u64("check_plain_runs", plain.run_wall_ns.size())
      .u64("check_plain_run_wall_ns", sum(plain.run_wall_ns))
      .u64("check_checked_runs", checked.run_wall_ns.size())
      .u64("check_checked_run_wall_ns", sum(checked.run_wall_ns))
      .close();
  return json.done();
}

std::string run_traced(const Options& opt, std::size_t threads) {
  const Workload& w = *opt.workload;
  Pass total;
  warm_up(w, opt.seed, threads, total);
  ProfileSink profiles;
  const Pass pass =
      run_pass(w, make_config(w, w.layer_runs, opt.seed, threads), &profiles);
  add_counts(total, pass);
  std::ofstream out(opt.profile_out, std::ios::trunc);
  write_profile_jsonl(out, profiles.campaign());
  out.flush();
  if (!out) {
    throw std::runtime_error("cannot write profile " + opt.profile_out);
  }
  Json json = header(opt, threads);
  json.str("mode", "traced")
      .u64("attempted", total.attempted)
      .u64("failed", total.failed)
      .u64("violations", total.violations)
      .u64("runs", pass.run_wall_ns.size())
      .u64("wall_ns", pass.wall_ns)
      .u64("run_wall_ns_total", sum(pass.run_wall_ns))
      .str("profile", opt.profile_out);
  return json.done();
}

const char* const kUsage =
    "usage: sdcm_bench --workload=NAME --seed=N --mode=timed --seconds=S\n"
    "       sdcm_bench --workload=NAME --seed=N --mode=layers\n"
    "       sdcm_bench --workload=NAME --seed=N --mode=traced "
    "--profile-out=FILE\n"
    "workloads: paper_grid paper_grid_checked trace_export churn_1e3\n";

std::optional<Options> parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  bool have_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (!arg.starts_with("--") || eq == std::string_view::npos) {
      return std::nullopt;
    }
    const std::string_view key = arg.substr(2, eq - 2);
    const std::string value(arg.substr(eq + 1));
    try {
      if (key == "workload") {
        opt.workload = find_workload(value);
      } else if (key == "seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "seconds") {
        opt.seconds = std::stod(value);
      } else if (key == "mode") {
        have_mode = true;
        if (value == "timed") {
          opt.mode = Mode::kTimed;
        } else if (value == "layers") {
          opt.mode = Mode::kLayers;
        } else if (value == "traced") {
          opt.mode = Mode::kTraced;
        } else {
          return std::nullopt;
        }
      } else if (key == "profile-out") {
        opt.profile_out = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  const bool timed = opt.mode == Mode::kTimed;
  const bool traced = opt.mode == Mode::kTraced;
  if (opt.workload == nullptr || !have_seed || !have_mode ||
      (opt.seconds > 0.0) != timed || opt.profile_out.empty() == traced) {
    return std::nullopt;
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Options> opt = parse(argc, argv);
  if (!opt) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (const auto problem = build_problem(opt->mode)) {
    std::fprintf(stderr, "sdcm_bench: refusing to run: %s\n",
                 problem->c_str());
    return 2;
  }
  const std::size_t threads = std::min<std::size_t>(
      4, std::max(1u, std::thread::hardware_concurrency()));
  try {
    std::string out;
    switch (opt->mode) {
      case Mode::kTimed:
        out = run_timed(*opt, threads);
        break;
      case Mode::kLayers:
        out = run_layers(*opt, threads);
        break;
      case Mode::kTraced:
        out = run_traced(*opt, threads);
        break;
    }
    std::fputs(out.c_str(), stdout);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sdcm_bench: %s\n", e.what());
    return 1;
  }
  return 0;
}
