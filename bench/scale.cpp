// Scale bench: the proof artifact of the arena-backed node/message API.
// Two series, each swept across decades of node count N:
//
//  - fanout: a synthetic hub multicasting SBO-payload messages to N
//    attached MessageSinks through the flat NodeTable. Measures steady
//    events/s of the delivery hot path and bytes/node of the attach
//    storage. The claim under test: bytes/node stays flat-or-falling as
//    N grows decades (dense table slots, shared payloads - no per-node
//    heap nodes), which is what unlocks 10^5-10^6-node topologies.
//
//  - fanout_subscribers: the interest-scoped series (DESIGN.md section
//    14). A fixed 16 of the N spokes subscribe to the published type;
//    the rest declare a different interest. The claim under test:
//    delivery work tracks the subscriber count, not N - rounds/s stays
//    roughly flat across decades while a broadcast-shaped cost would
//    fall 10x per decade.
//
//  - topology: the real TopologySpec-driven build of the decentralized
//    mDNS model (Manager + N Users) through the protocol registry,
//    measuring construction throughput and bytes/node of full protocol
//    nodes. Capped at 10^4 (10^5 with SDCM_SCALE_FULL=1): protocol
//    nodes carry caches and timers, so a 10^6 build is a memory soak,
//    not a regression gate.
//
// Artifacts: BENCH_scale.json (override with SDCM_BENCH_JSON) for
// tools/bench_compare.py; the CI gate key is fanout.n_1000.events_per_sec.
// SDCM_BENCH_SMOKE shrinks the decades to 10^2..10^3 for CI;
// SDCM_SCALE_FULL=1 extends the fanout series to 10^6 nodes.

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "bench_common.hpp"
#include "sdcm/discovery/observer.hpp"
#include "sdcm/experiment/protocol_registry.hpp"
#include "sdcm/net/network.hpp"
#include "sdcm/sim/simulator.hpp"

using namespace sdcm;

namespace {

/// Heap bytes currently allocated, for the bytes/node deltas. glibc's
/// mallinfo2 is exact for this single-threaded bench; elsewhere the
/// series degrades to 0 and the flatness claim is skipped.
std::uint64_t heap_bytes() {
#if defined(__GLIBC__) && (__GLIBC__ > 2 || __GLIBC_MINOR__ >= 33)
  return static_cast<std::uint64_t>(mallinfo2().uordblks);
#else
  return 0;
#endif
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// 48-byte trivially-copyable payload: rides the Payload SBO, so a
/// multicast fan-out to 10^6 receivers allocates nothing.
struct Ping {
  std::uint64_t round = 0;
  std::uint64_t filler[5] = {};
};

/// One vtable pointer + a counter per node: the receiver the NodeTable
/// dispatches to, with no std::function and no captured state.
class Spoke final : public net::MessageSink {
 public:
  void handle_message(const net::Message& msg) override {
    last_round_ = msg.as<Ping>().round;
    ++received_;
  }
  [[nodiscard]] std::uint64_t received() const noexcept { return received_; }

 private:
  std::uint64_t received_ = 0;
  std::uint64_t last_round_ = 0;
};

struct FanoutMeasured {
  std::uint64_t nodes = 0;
  std::uint64_t rounds = 0;
  std::uint64_t delivered = 0;
  double build_seconds = 0.0;
  double attach_per_sec = 0.0;
  double bytes_per_node = 0.0;
  double events_per_sec = 0.0;
  double deliveries_per_sec = 0.0;
};

FanoutMeasured measure_fanout(int n, int rounds) {
  FanoutMeasured out;
  out.nodes = static_cast<std::uint64_t>(n);
  out.rounds = static_cast<std::uint64_t>(rounds);

  sim::Simulator simulator(/*seed=*/1);
  simulator.trace().set_recording(false);
  net::Network network(simulator);

  const sim::NodeId hub_id = 1;
  const std::uint64_t heap_before = heap_bytes();
  const auto build_start = std::chrono::steady_clock::now();
  network.reserve_nodes(static_cast<sim::NodeId>(n) + 1);
  // One contiguous slab of receivers; attach is slot assignment, not a
  // hash insert.
  auto spokes = std::make_unique<std::vector<Spoke>>();
  spokes->resize(static_cast<std::size_t>(n) + 1);
  network.attach(hub_id, (*spokes)[0]);
  for (int i = 1; i <= n; ++i) {
    network.attach(hub_id + static_cast<sim::NodeId>(i),
                   (*spokes)[static_cast<std::size_t>(i)]);
  }
  out.build_seconds = seconds_since(build_start);
  const std::uint64_t heap_after = heap_bytes();
  out.bytes_per_node =
      heap_after > heap_before
          ? static_cast<double>(heap_after - heap_before) / n
          : 0.0;
  out.attach_per_sec =
      out.build_seconds > 0.0 ? n / out.build_seconds : 0.0;

  // Steady-state fan-out: one multicast per simulated second; every
  // round delivers to all N spokes through the NodeTable with a shared
  // SBO payload.
  for (int r = 0; r < rounds; ++r) {
    simulator.schedule_at(sim::seconds(r + 1), [&network, r] {
      net::Message m;
      m.src = 1;
      m.type = net::MessageType::intern("bench.scale.ping");
      m.klass = net::MessageClass::kUpdate;
      Ping ping;
      ping.round = static_cast<std::uint64_t>(r) + 1;
      m.payload = ping;
      network.multicast(m, /*redundant_copies=*/1);
    });
  }
  const std::uint64_t events_before = simulator.kernel_stats().events_fired;
  const auto run_start = std::chrono::steady_clock::now();
  simulator.run_until(sim::seconds(rounds + 2));
  const double run_seconds = seconds_since(run_start);
  const std::uint64_t events =
      simulator.kernel_stats().events_fired - events_before;

  for (std::size_t i = 1; i < spokes->size(); ++i) {
    out.delivered += (*spokes)[i].received();
  }
  out.events_per_sec =
      run_seconds > 0.0 ? static_cast<double>(events) / run_seconds : 0.0;
  out.deliveries_per_sec =
      run_seconds > 0.0 ? static_cast<double>(out.delivered) / run_seconds
                        : 0.0;
  return out;
}

/// A spoke with a declared interest set, for the interest-scoped
/// series: most spokes subscribe to a type the hub never publishes, so
/// scoped fan-out can skip them.
class InterestedSpoke final : public net::MessageSink {
 public:
  void subscribe_to_ping() { wants_ping_ = true; }
  void handle_message(const net::Message& msg) override {
    last_round_ = msg.as<Ping>().round;
    ++received_;
  }
  [[nodiscard]] std::uint64_t received() const noexcept { return received_; }

  [[nodiscard]] std::optional<std::vector<net::MessageType>>
  multicast_interests() const override {
    if (wants_ping_) {
      return std::vector<net::MessageType>{
          net::MessageType::intern("bench.scale.ping")};
    }
    return std::vector<net::MessageType>{
        net::MessageType::intern("bench.scale.other")};
  }

 private:
  bool wants_ping_ = false;
  std::uint64_t received_ = 0;
  std::uint64_t last_round_ = 0;
};

struct ScopedFanoutMeasured {
  std::uint64_t nodes = 0;
  std::uint64_t rounds = 0;
  std::uint64_t subscribers = 0;
  std::uint64_t delivered = 0;
  std::uint64_t skipped = 0;
  double events_per_sec = 0.0;
  double rounds_per_sec = 0.0;
};

/// The O(N^2)-hot-path kill measured directly: N spokes, a fixed 16 of
/// them interested in the published type. A round is O(subscribers),
/// so rounds/s should stay roughly flat across decades of N.
ScopedFanoutMeasured measure_scoped_fanout(int n, int rounds) {
  constexpr int kSubscribers = 16;
  ScopedFanoutMeasured out;
  out.nodes = static_cast<std::uint64_t>(n);
  out.rounds = static_cast<std::uint64_t>(rounds);
  out.subscribers = static_cast<std::uint64_t>(n < kSubscribers ? n : kSubscribers);

  sim::Simulator simulator(/*seed=*/1);
  simulator.trace().set_recording(false);
  net::Network network(simulator);

  const sim::NodeId hub_id = 1;
  network.reserve_nodes(static_cast<sim::NodeId>(n) + 1);
  auto spokes = std::make_unique<std::vector<InterestedSpoke>>();
  spokes->resize(static_cast<std::size_t>(n) + 1);
  network.attach(hub_id, (*spokes)[0]);
  for (int i = 1; i <= n; ++i) {
    if (i <= kSubscribers) (*spokes)[static_cast<std::size_t>(i)].subscribe_to_ping();
    network.attach(hub_id + static_cast<sim::NodeId>(i),
                   (*spokes)[static_cast<std::size_t>(i)]);
  }

  for (int r = 0; r < rounds; ++r) {
    simulator.schedule_at(sim::seconds(r + 1), [&network, r] {
      net::Message m;
      m.src = 1;
      m.type = net::MessageType::intern("bench.scale.ping");
      m.klass = net::MessageClass::kUpdate;
      Ping ping;
      ping.round = static_cast<std::uint64_t>(r) + 1;
      m.payload = ping;
      network.multicast(m, /*redundant_copies=*/1);
    });
  }
  const std::uint64_t events_before = simulator.kernel_stats().events_fired;
  const auto run_start = std::chrono::steady_clock::now();
  simulator.run_until(sim::seconds(rounds + 2));
  const double run_seconds = seconds_since(run_start);
  const std::uint64_t events =
      simulator.kernel_stats().events_fired - events_before;

  for (std::size_t i = 1; i < spokes->size(); ++i) {
    out.delivered += (*spokes)[i].received();
  }
  out.skipped = simulator.kernel_stats().udp_deliveries_skipped;
  out.events_per_sec =
      run_seconds > 0.0 ? static_cast<double>(events) / run_seconds : 0.0;
  out.rounds_per_sec =
      run_seconds > 0.0 ? static_cast<double>(out.rounds) / run_seconds : 0.0;
  return out;
}

struct TopologyMeasured {
  std::uint64_t users = 0;
  std::uint64_t nodes = 0;
  double build_seconds = 0.0;
  double nodes_per_sec = 0.0;
  double bytes_per_node = 0.0;
};

TopologyMeasured measure_topology(int users) {
  TopologyMeasured out;
  out.users = static_cast<std::uint64_t>(users);

  sim::Simulator simulator(/*seed=*/1);
  simulator.trace().set_recording(false);
  net::Network network(simulator);
  discovery::ConsistencyObserver observer;

  experiment::ExperimentConfig config;
  config.model = experiment::SystemModel::kMdns;
  config.topology.users = users;
  const experiment::TopologyLayout layout =
      experiment::resolve_topology(config.model, config.topology);

  const std::uint64_t heap_before = heap_bytes();
  const auto build_start = std::chrono::steady_clock::now();
  network.reserve_nodes(layout.id_bound());
  experiment::Topology topo =
      experiment::protocol_descriptor(config.model)
          .build(config, simulator, network, observer);
  out.build_seconds = seconds_since(build_start);
  const std::uint64_t heap_after = heap_bytes();
  out.nodes = topo.nodes.size();
  out.bytes_per_node =
      heap_after > heap_before && !topo.nodes.empty()
          ? static_cast<double>(heap_after - heap_before) /
                static_cast<double>(topo.nodes.size())
          : 0.0;
  out.nodes_per_sec = out.build_seconds > 0.0
                          ? static_cast<double>(topo.nodes.size()) /
                                out.build_seconds
                          : 0.0;
  return out;
}

void print_fanout(const FanoutMeasured& m) {
  std::printf("  N=%-8llu rounds=%-3llu %12.0f ev/s %12.0f msg/s  "
              "%8.1f B/node  attach %10.0f/s\n",
              static_cast<unsigned long long>(m.nodes),
              static_cast<unsigned long long>(m.rounds), m.events_per_sec,
              m.deliveries_per_sec, m.bytes_per_node, m.attach_per_sec);
}

void print_scoped_fanout(const ScopedFanoutMeasured& m) {
  std::printf("  N=%-8llu rounds=%-3llu subs=%-3llu %12.0f ev/s "
              "%10.1f rounds/s  skipped %llu\n",
              static_cast<unsigned long long>(m.nodes),
              static_cast<unsigned long long>(m.rounds),
              static_cast<unsigned long long>(m.subscribers),
              m.events_per_sec, m.rounds_per_sec,
              static_cast<unsigned long long>(m.skipped));
}

void emit_scoped_fanout(bench::JsonWriter& json,
                        const ScopedFanoutMeasured& m) {
  std::string key = "n_";
  key += std::to_string(m.nodes);
  json.begin(key)
      .field("nodes", m.nodes)
      .field("rounds", m.rounds)
      .field("subscribers", m.subscribers)
      .field("delivered", m.delivered)
      .field("skipped", m.skipped)
      .field("events_per_sec", m.events_per_sec)
      .field("rounds_per_sec", m.rounds_per_sec)
      .end();
}

void print_topology(const TopologyMeasured& m) {
  std::printf("  U=%-8llu nodes=%-8llu build %8.4f s  %10.0f nodes/s  "
              "%8.1f B/node\n",
              static_cast<unsigned long long>(m.users),
              static_cast<unsigned long long>(m.nodes), m.build_seconds,
              m.nodes_per_sec, m.bytes_per_node);
}

void emit_fanout(bench::JsonWriter& json, const FanoutMeasured& m) {
  std::string key = "n_";
  key += std::to_string(m.nodes);
  json.begin(key)
      .field("nodes", m.nodes)
      .field("rounds", m.rounds)
      .field("delivered", m.delivered)
      .field("build_seconds", m.build_seconds)
      .field("attach_per_sec", m.attach_per_sec)
      .field("bytes_per_node", m.bytes_per_node)
      .field("events_per_sec", m.events_per_sec)
      .field("deliveries_per_sec", m.deliveries_per_sec)
      .end();
}

void emit_topology(bench::JsonWriter& json, const TopologyMeasured& m) {
  std::string key = "mdns_u_";
  key += std::to_string(m.users);
  json.begin(key)
      .field("users", m.users)
      .field("nodes", m.nodes)
      .field("build_seconds", m.build_seconds)
      .field("nodes_per_sec", m.nodes_per_sec)
      .field("bytes_per_node", m.bytes_per_node)
      .end();
}

}  // namespace

int main() {
  const bool smoke = experiment::env::bench_smoke();
  const bool full = experiment::env::int_or("SDCM_SCALE_FULL", 0, 0) != 0;

  std::vector<int> fanout_decades;
  std::vector<int> topology_decades;
  if (smoke) {
    fanout_decades = {100, 1000};
    topology_decades = {100, 1000};
  } else {
    fanout_decades = {100, 1000, 10000, 100000};
    topology_decades = {100, 1000, 10000};
    if (full) {
      fanout_decades.push_back(1000000);
      topology_decades.push_back(100000);
    }
  }

  bench::banner("scale", "node/message API scaling across decades of N");
  bench::note("fanout: hub multicast to N MessageSinks (NodeTable + SBO "
              "payload)");

  std::vector<FanoutMeasured> fanout;
  for (const int n : fanout_decades) {
    // Bound total deliveries per decade so the big-N points measure
    // steady-state rate, not patience.
    const int budget = smoke ? 200000 : 2000000;
    int rounds = budget / n;
    if (rounds < 2) rounds = 2;
    if (rounds > 50) rounds = 50;
    fanout.push_back(measure_fanout(n, rounds));
    print_fanout(fanout.back());
  }

  bench::note("fanout_subscribers: 16 of N spokes subscribe to the "
              "published type (DESIGN.md section 14)");
  std::vector<ScopedFanoutMeasured> fanout_subscribers;
  for (const int n : fanout_decades) {
    // Same per-decade round budget as the universal series, so the two
    // series' points line up decade for decade.
    const int budget = smoke ? 200000 : 2000000;
    int rounds = budget / n;
    if (rounds < 2) rounds = 2;
    if (rounds > 50) rounds = 50;
    fanout_subscribers.push_back(measure_scoped_fanout(n, rounds));
    print_scoped_fanout(fanout_subscribers.back());
  }

  bench::note("topology: TopologySpec-driven mDNS build (Manager + U "
              "Users) via the protocol registry");
  std::vector<TopologyMeasured> topology;
  for (const int users : topology_decades) {
    topology.push_back(measure_topology(users));
    print_topology(topology.back());
  }

  // The headline claim: attach storage per node does not grow with N.
  // 10% slack absorbs allocator bucketing at the small-N end.
  const bool have_heap = heap_bytes() != 0;
  bool bytes_flat = true;
  if (have_heap) {
    const double first = fanout.front().bytes_per_node;
    for (const auto& m : fanout) {
      if (m.bytes_per_node > first * 1.10) bytes_flat = false;
    }
  }
  bench::check(bytes_flat,
               "fanout bytes/node is flat-or-falling across decades "
               "(dense NodeTable, no per-node heap nodes)");
  bool every_spoke = true;
  for (const auto& m : fanout) {
    every_spoke = every_spoke && m.delivered == m.nodes * m.rounds;
  }
  bench::check(every_spoke, "every multicast round reached every spoke");

  // Interest-scoping correctness: exactly the subscribers receive, and
  // every other spoke is accounted as skipped.
  bool scoped_exact = true;
  for (const auto& m : fanout_subscribers) {
    if (m.delivered != m.subscribers * m.rounds ||
        m.skipped != (m.nodes - m.subscribers) * m.rounds) {
      scoped_exact = false;
    }
  }
  bench::check(scoped_exact,
               "scoped fan-out delivers to exactly the subscribers and "
               "accounts every skip");

  const char* json_path = std::getenv("SDCM_BENCH_JSON");
  const std::string path = (json_path != nullptr && *json_path != '\0')
                               ? json_path
                               : "BENCH_scale.json";
  bench::JsonWriter json;
  json.begin()
      .field("bench", "scale")
      .field("smoke", smoke)
      .field("full", full)
      .field("heap_metric", have_heap);
  json.begin("fanout");
  for (const auto& m : fanout) emit_fanout(json, m);
  json.end();
  json.begin("fanout_subscribers");
  for (const auto& m : fanout_subscribers) emit_scoped_fanout(json, m);
  json.end();
  json.begin("topology");
  for (const auto& m : topology) emit_topology(json, m);
  json.end();
  json.begin("claims")
      .field("bytes_per_node_flat", bytes_flat)
      .field("scoped_fanout_exact", scoped_exact)
      .end();
  json.end();
  if (!json.write_file(path)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return (bytes_flat && every_spoke && scoped_exact) ? 0 : 1;
}
