// Kernel benchmark with a machine-readable artifact. Two halves:
//
//  1. google-benchmark microbenchmarks of the simulation substrate
//     (event queue, RNG, message delivery, whole-run cost per model) -
//     the numbers behind the harness's capacity planning (a full paper
//     sweep is 5 systems x 19 rates x 30 runs = 2850 simulations).
//  2. Head-to-heads of the seed event queue (binary priority_queue +
//     tombstone cancel + std::function) and the current kernel (a
//     callback slab ordered by two tiers: a 128-bucket calendar ring for
//     events due within 128 us of the last pop, and a 4-ary heap of
//     keyed entries with bottom-up erase for everything later), timed
//     with steady_clock and written to BENCH_sim_kernel.json alongside
//     the kernel's own counters. Two workloads: lease churn (timers
//     cancelled and re-armed, all in the heap) and delivery_mix
//     (deliveries due 10-100 us ahead over about 20 k pending far
//     timers, the event mix of a paper run, all in the ring). A third
//     series, sim_loop, times Simulator::run_until itself. CI uploads
//     the JSON as an artifact.
//
// Environment knobs:
//   SDCM_BENCH_SMOKE  - nonzero: skip microbenches, and time each series
//                       for about 20-100 ms per repetition (CI): shorter
//                       series measure the host, not the 2 % the CI
//                       kernel gate checks. The smoke series keep the
//                       full runs' queue depths and only run fewer
//                       events, so their events/s compare across both.
//   SDCM_BENCH_ITERS  - override lease-churn rounds per repetition
//   SDCM_BENCH_JSON   - artifact path (default BENCH_sim_kernel.json)

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "sdcm/experiment/scenario.hpp"
#include "sdcm/net/network.hpp"
#include "sdcm/sim/simulator.hpp"
#include "seed_event_queue.hpp"

namespace {

using namespace sdcm;

// --- google-benchmark microbenches ----------------------------------

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  for (auto _ : state) {
    sim::EventQueue queue;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      queue.schedule(i, [&fired] { ++fired; });
    }
    while (!queue.empty()) queue.pop().cb();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleAndPop);

void BM_SeedEventQueueScheduleAndPop(benchmark::State& state) {
  for (auto _ : state) {
    bench::SeedEventQueue queue;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      queue.schedule(i, [&fired] { ++fired; });
    }
    while (!queue.empty()) queue.pop().cb();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SeedEventQueueScheduleAndPop);

void BM_EventQueueCancelHeavy(benchmark::State& state) {
  // The protocol-shaped pattern: almost every scheduled timer is
  // cancelled (lease renewed) before it can fire.
  for (auto _ : state) {
    sim::EventQueue queue;
    sim::EventId pending[64] = {};
    int fired = 0;
    for (int round = 0; round < 100; ++round) {
      for (auto& id : pending) {
        queue.cancel(id);
        id = queue.schedule(round * 100 + 1000, [&fired] { ++fired; });
      }
    }
    while (!queue.empty()) queue.pop().cb();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 64 * 100);
}
BENCHMARK(BM_EventQueueCancelHeavy);

void BM_RandomUniformInt(benchmark::State& state) {
  sim::Random rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.uniform_int(0, 1000000));
  }
}
BENCHMARK(BM_RandomUniformInt);

void BM_UdpUnicastDelivery(benchmark::State& state) {
  sim::Simulator simulator(1);
  simulator.trace().set_recording(false);
  net::Network network(simulator);
  network.attach(1, [](const net::Message&) {});
  std::uint64_t received = 0;
  network.attach(2, [&](const net::Message&) { ++received; });
  net::Message msg;
  msg.src = 1;
  msg.dst = 2;
  msg.type = sdcm::net::MessageType::intern("bench");
  for (auto _ : state) {
    network.send(msg);
    simulator.run_until(simulator.now() + sim::milliseconds(1));
  }
  benchmark::DoNotOptimize(received);
  state.SetItemsProcessed(static_cast<std::int64_t>(received));
}
BENCHMARK(BM_UdpUnicastDelivery);

void BM_FullRun(benchmark::State& state) {
  const auto model =
      static_cast<experiment::SystemModel>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    experiment::ExperimentConfig config;
    config.model = model;
    config.lambda = 0.45;
    config.seed = seed++;
    benchmark::DoNotOptimize(experiment::run_experiment(config));
  }
  state.SetLabel(std::string(experiment::to_string(model)));
}
BENCHMARK(BM_FullRun)->DenseRange(0, 4)->Unit(benchmark::kMillisecond);

// --- lease-churn head-to-head ---------------------------------------

struct ChurnShape {
  int leases = 512;
  int rounds = 2000;
  int reps = 5;
};

struct ChurnResult {
  std::uint64_t ops = 0;        // schedules + cancels + pops, one rep
  std::uint64_t fired = 0;      // expiries that actually ran
  std::uint64_t checksum = 0;   // workload-visible effect; must match
  double best_seconds = 0.0;    // fastest repetition
};

// Drives `Queue` through the discovery protocols' timer pattern: every
// round most leases renew (cancel the pending expiry, schedule a new
// one) while a deterministic minority miss their renewal and expire.
// The callback captures 24 bytes - object pointer, service id, node id,
// retry counter - the exact shape that overflows std::function's
// 16-byte inline buffer but sits comfortably in InlineCallback's 64.
template <typename Queue, typename Setup>
ChurnResult run_lease_churn(const ChurnShape& shape, Setup setup) {
  ChurnResult result;
  std::vector<std::uint64_t> renews(static_cast<std::size_t>(shape.leases));
  for (int rep = 0; rep < shape.reps; ++rep) {
    Queue queue;
    setup(queue);
    std::vector<std::uint64_t> timers(
        static_cast<std::size_t>(shape.leases), 0);
    std::fill(renews.begin(), renews.end(), 0);
    std::uint64_t ops = 0;
    std::uint64_t fired = 0;
    const sim::SimTime ttl = 1000;
    sim::SimTime now = 0;

    const auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < shape.leases; ++i) {
      const auto slot = static_cast<std::size_t>(i);
      std::uint64_t* counter = &renews[slot];
      const std::uint64_t service = static_cast<std::uint64_t>(i) * 7 + 1;
      const std::uint32_t node = static_cast<std::uint32_t>(i % 13);
      const int retries = i % 3;
      timers[slot] = queue.schedule(
          now + ttl + i % 7, [counter, service, node, retries] {
            *counter += service + node + static_cast<std::uint64_t>(retries);
          });
      ++ops;
    }
    for (int round = 0; round < shape.rounds; ++round) {
      now += 100;
      for (int i = 0; i < shape.leases; ++i) {
        if ((i + round) % 10 == 0) continue;  // renewal lost; will expire
        const auto slot = static_cast<std::size_t>(i);
        queue.cancel(timers[slot]);
        std::uint64_t* counter = &renews[slot];
        const std::uint64_t service = static_cast<std::uint64_t>(i) * 7 + 1;
        const std::uint32_t node = static_cast<std::uint32_t>(round % 13);
        const int retries = round % 3;
        timers[slot] = queue.schedule(
            now + ttl + i % 7, [counter, service, node, retries] {
              *counter += service + node + static_cast<std::uint64_t>(retries);
            });
        ops += 2;
      }
      while (!queue.empty() && queue.next_time() <= now) {
        queue.pop().cb();
        ++fired;
        ++ops;
      }
    }
    while (!queue.empty()) {
      queue.pop().cb();
      ++fired;
      ++ops;
    }
    const auto stop = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(stop - start).count();

    std::uint64_t checksum = 0;
    for (const auto r : renews) checksum += r;
    result.ops = ops;
    result.fired = fired;
    result.checksum = checksum;
    if (rep == 0 || seconds < result.best_seconds) {
      result.best_seconds = seconds;
    }
  }
  return result;
}

// --- simulator-loop throughput --------------------------------------

// Drives events through Simulator::run_until itself - the dispatch path
// that carries the (compile-time-gated) profiler hooks - rather than
// the bare queue. The CI gate compares sim_loop.events_per_sec of a
// profiler-off build against the parent commit's to prove the hooks
// cost nothing when SDCM_PROFILE is off; `profile_compiled` records
// which configuration produced the artifact.
struct LoopResult {
  std::uint64_t events = 0;
  double best_seconds = 0.0;
};

LoopResult run_sim_loop(bool smoke) {
  const std::uint64_t limit = smoke ? 1000000 : 2000000;
  const int reps = smoke ? 2 : 5;

  struct Chain {
    sim::Simulator* simulator = nullptr;
    std::uint64_t* fired = nullptr;
    std::uint64_t limit = 0;

    void arm(sim::SimTime at) {
      simulator->schedule_at(at, [this] {
        ++*fired;
        if (*fired < limit) arm(simulator->now() + 10);
      });
    }
  };

  LoopResult result;
  for (int rep = 0; rep < reps; ++rep) {
    sim::Simulator simulator(7);
    simulator.trace().set_recording(false);
    std::uint64_t fired = 0;
    constexpr std::size_t kChains = 16;
    std::vector<Chain> chains(kChains);
    for (std::size_t c = 0; c < kChains; ++c) {
      chains[c] = Chain{&simulator, &fired, limit};
      chains[c].arm(static_cast<sim::SimTime>(c + 1));
    }
    const auto start = std::chrono::steady_clock::now();
    simulator.run_all();
    const auto stop = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(stop - start).count();
    result.events = fired;
    if (rep == 0 || seconds < result.best_seconds) {
      result.best_seconds = seconds;
    }
  }
  return result;
}

// --- delivery mix ---------------------------------------------------

// The event mix of a paper run: network deliveries due U(10, 100) us
// ahead (Table 3), dispatched over a backlog of far-future protocol
// timers. 16 delivery chains each re-arm when they fire, over 20 k
// timers due 3600-5400 s out that never come due in the measured
// window. The queue's own loop (pop, advance the clock, fire) drives
// them, as Simulator::run_until does; only that loop is timed.
struct MixResult {
  std::uint64_t events = 0;
  std::uint64_t checksum = 0;  // order-sensitive: must match across queues
  double best_seconds = 0.0;
};

constexpr int kMixTimers = 20000;
constexpr int kMixChains = 16;

template <typename Queue>
MixResult run_delivery_mix(bool smoke) {
  const std::uint64_t limit = smoke ? 1000000 : 2000000;
  const int reps = smoke ? 2 : 5;

  struct Mix {
    Queue queue;
    sim::Random rng{11};
    sim::SimTime now = 0;
    std::uint64_t fired = 0;
    std::uint64_t checksum = 0;

    void arm(int chain) {
      queue.schedule(now + rng.uniform_int(10, 100), [this, chain] {
        ++fired;
        checksum = checksum * 31 + static_cast<std::uint64_t>(chain);
        arm(chain);
      });
    }
  };

  MixResult result;
  for (int rep = 0; rep < reps; ++rep) {
    Mix mix;
    std::uint64_t timer_fires = 0;
    for (int i = 0; i < kMixTimers; ++i) {
      mix.queue.schedule(
          sim::seconds(3600) + mix.rng.uniform_int(0, sim::seconds(1800)),
          [&timer_fires] { ++timer_fires; });
    }
    for (int c = 0; c < kMixChains; ++c) mix.arm(c);
    const auto start = std::chrono::steady_clock::now();
    while (mix.fired < limit) {
      auto fired = mix.queue.pop();
      mix.now = fired.at;
      fired.cb();
    }
    const auto stop = std::chrono::steady_clock::now();
    const double seconds =
        std::chrono::duration<double>(stop - start).count();
    result.events = mix.fired + timer_fires;
    result.checksum = mix.checksum;
    if (rep == 0 || seconds < result.best_seconds) {
      result.best_seconds = seconds;
    }
  }
  return result;
}

void emit_queue(bench::JsonWriter& json, const char* key,
                const ChurnResult& r) {
  const double ns_per_op =
      r.best_seconds * 1e9 / static_cast<double>(r.ops);
  const double ops_per_sec =
      static_cast<double>(r.ops) / r.best_seconds;
  json.begin(key)
      .field("ops", r.ops)
      .field("events_fired", r.fired)
      .field("best_seconds", r.best_seconds)
      .field("ns_per_op", ns_per_op)
      .field("events_per_sec", ops_per_sec)
      .end();
  std::printf("  %-14s %10.1f ns/op  %12.0f events/sec\n", key, ns_per_op,
              ops_per_sec);
}

int run_lease_churn_comparison(bool smoke) {
  ChurnShape shape;
  if (smoke) {
    shape.leases = 64;
    shape.rounds = 8000;
    shape.reps = 2;
  }
  shape.rounds = sdcm::experiment::env::bench_iters(shape.rounds);

  bench::banner("sim_kernel", "event-queue lease-churn head-to-head");
  std::printf("leases=%d rounds=%d reps=%d (SDCM_BENCH_ITERS overrides "
              "rounds)\n",
              shape.leases, shape.rounds, shape.reps);

  const auto seed = run_lease_churn<bench::SeedEventQueue>(
      shape, [](bench::SeedEventQueue&) {});
  // The workload is deterministic, so resetting the shared block per rep
  // leaves it holding exactly one repetition's counter totals.
  sim::KernelStats totals;
  const auto indexed =
      run_lease_churn<sim::EventQueue>(shape, [&totals](sim::EventQueue& q) {
        totals.reset();
        q.bind_stats(&totals);
      });

  const double speedup = seed.best_seconds / indexed.best_seconds;
  std::printf("  speedup (seed/indexed): %.2fx\n", speedup);
  const bool consistent =
      seed.checksum == indexed.checksum && seed.fired == indexed.fired;
  bench::check(consistent,
               "both queues fire the same expiries with the same effects");
  // Informational: a timing ratio. CI gates the throughput itself
  // against the parent commit with tools/bench_compare.py.
  bench::check(speedup >= 1.5,
               "indexed heap >= 1.5x events/sec on lease churn");

  const char* json_path = std::getenv("SDCM_BENCH_JSON");
  const std::string path =
      (json_path != nullptr && *json_path != '\0') ? json_path
                                                   : "BENCH_sim_kernel.json";

  bench::JsonWriter json;
  json.begin()
      .field("bench", "sim_kernel")
      .field("smoke", smoke)
      .begin("workload")
      .field("leases", static_cast<std::uint64_t>(shape.leases))
      .field("rounds", static_cast<std::uint64_t>(shape.rounds))
      .field("reps", static_cast<std::uint64_t>(shape.reps))
      .field("checksum", indexed.checksum)
      .end();
  emit_queue(json, "seed_queue", seed);
  emit_queue(json, "indexed_queue", indexed);
  const LoopResult loop = run_sim_loop(smoke);
  {
    const double ns_per_event =
        loop.best_seconds * 1e9 / static_cast<double>(loop.events);
    const double events_per_sec =
        static_cast<double>(loop.events) / loop.best_seconds;
    json.begin("sim_loop")
        .field("events", loop.events)
        .field("best_seconds", loop.best_seconds)
        .field("ns_per_event", ns_per_event)
        .field("events_per_sec", events_per_sec)
        .field("profile_compiled", SDCM_PROFILE_ENABLED != 0)
        .end();
    std::printf("  %-14s %10.1f ns/op  %12.0f events/sec  (profiler %s)\n",
                "sim_loop", ns_per_event, events_per_sec,
                SDCM_PROFILE_ENABLED != 0 ? "compiled in" : "off");
  }
  const MixResult mix_seed = run_delivery_mix<bench::SeedEventQueue>(smoke);
  const MixResult mix = run_delivery_mix<sim::EventQueue>(smoke);
  const bool mix_consistent =
      mix_seed.events == mix.events && mix_seed.checksum == mix.checksum;
  bench::check(mix_consistent,
               "both queues fire the delivery mix in the same order");
  {
    json.begin("delivery_mix")
        .field("events", mix.events)
        .field("pending_timers", static_cast<std::uint64_t>(kMixTimers))
        .field("chains", static_cast<std::uint64_t>(kMixChains));
    for (const auto& [key, r] : {std::pair{"seed_queue", &mix_seed},
                                 std::pair{"indexed_queue", &mix}}) {
      const double ns_per_event =
          r->best_seconds * 1e9 / static_cast<double>(r->events);
      const double events_per_sec =
          static_cast<double>(r->events) / r->best_seconds;
      json.begin(key)
          .field("best_seconds", r->best_seconds)
          .field("ns_per_event", ns_per_event)
          .field("events_per_sec", events_per_sec)
          .end();
      std::printf("  delivery_mix %-14s %7.1f ns/op  %12.0f events/sec\n",
                  key, ns_per_event, events_per_sec);
    }
    json.field("speedup", mix_seed.best_seconds / mix.best_seconds).end();
  }
  json.begin("kernel_counters")
      .field("events_scheduled", totals.events_scheduled)
      .field("events_cancelled", totals.events_cancelled)
      .field("events_fired", totals.events_fired)
      .field("peak_heap_size", totals.peak_heap_size)
      .field("callback_heap_allocs", totals.callback_heap_allocs)
      .end();
  json.field("speedup", speedup)
      .field("consistent", consistent && mix_consistent)
      .end();
  if (!json.write_file(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return consistent && mix_consistent ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const bool smoke = sdcm::experiment::env::bench_smoke();
  if (!smoke) benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return run_lease_churn_comparison(smoke);
}
