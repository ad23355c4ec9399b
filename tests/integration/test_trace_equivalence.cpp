// Determinism pin for the discrete-event kernel: same (model, lambda,
// seed) must replay bit-identical event logs, and the logs must match
// golden fingerprints. Any event-queue change that reorders same-time
// events, alters id assignment visible through timer semantics, or
// perturbs RNG stream consumption shows up here as a fingerprint
// mismatch.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "sdcm/experiment/scenario.hpp"
#include "sdcm/obs/trace_jsonl.hpp"

namespace sdcm::experiment {
namespace {

metrics::RunRecord traced_run(SystemModel model, double lambda,
                              std::uint64_t seed) {
  ExperimentConfig config;
  config.model = model;
  config.lambda = lambda;
  config.seed = seed;
  config.record_trace = true;
  return run_experiment(config);
}

TEST(TraceEquivalence, SameSeedReplaysIdenticalTrace) {
  for (const auto model : kAllModels) {
    const auto first = traced_run(model, 0.30, 42);
    const auto second = traced_run(model, 0.30, 42);
    EXPECT_NE(first.trace_fingerprint, 0u) << to_string(model);
    EXPECT_EQ(first.trace_fingerprint, second.trace_fingerprint)
        << to_string(model);
  }
}

TEST(TraceEquivalence, DifferentSeedsDiverge) {
  const auto a = traced_run(SystemModel::kFrodoThreeParty, 0.30, 42);
  const auto b = traced_run(SystemModel::kFrodoThreeParty, 0.30, 43);
  EXPECT_NE(a.trace_fingerprint, b.trace_fingerprint);
}

// The only golden set: pinned when subscriber-only multicast fan-out
// landed (only subscribers draw delay/loss; DESIGN.md section 14), and
// kept bit for bit when it became the sole delivery path. Regenerate only
// for a change that is *supposed* to alter simulated behaviour, never for
// a kernel or fan-out refactor.
//
// `jsonl` is FNV-1a over the bytes obs::JsonlTraceWriter writes for the
// same run. The fingerprint excludes span and parent ids; this pin
// covers them, and every rendered detail, byte for byte. It was taken
// from the string-typed trace the typed records replaced, so the typed
// records, their render table and the writer reproduce that export
// exactly.
struct Golden {
  SystemModel model;
  double lambda;
  std::uint64_t fingerprint;
  std::uint64_t jsonl;
};
constexpr Golden kGoldens[] = {
    {SystemModel::kUpnp, 0.0, 0x7617305a37547c95ull, 0x01cb0f1bee1ae6e9ull},
    {SystemModel::kJiniOneRegistry, 0.0, 0xb176c0f852e3ab64ull,
     0x27d5cced9cf67121ull},
    {SystemModel::kJiniTwoRegistries, 0.0, 0xbe90207ae5f06c7dull,
     0xdc98c3dfc71aaa2cull},
    {SystemModel::kFrodoThreeParty, 0.0, 0xf73a53b774e2fd25ull,
     0x43e8d1a46af93b34ull},
    {SystemModel::kFrodoTwoParty, 0.0, 0xd5015b12b0358e42ull,
     0xa0543596a6dc9122ull},
    {SystemModel::kMdns, 0.0, 0xcba6197845d8ffa6ull, 0xba63b035d72a451cull},
    {SystemModel::kUpnp, 0.30, 0xfce910c0fd915db9ull, 0xedf942ba61f345f7ull},
    {SystemModel::kJiniOneRegistry, 0.30, 0x7d6aaac0019bc82dull,
     0x069755181098b9baull},
    {SystemModel::kJiniTwoRegistries, 0.30, 0x9e36f0f617f8d9a6ull,
     0x1b2449be870ef966ull},
    {SystemModel::kFrodoThreeParty, 0.30, 0x7ce881ca9f288bd5ull,
     0x41f12e210bba1487ull},
    {SystemModel::kFrodoTwoParty, 0.30, 0x1afb7312f89bf0f5ull,
     0xf7101bc406790802ull},
    {SystemModel::kMdns, 0.30, 0xb020a958592e6f1eull, 0xa2c84ed2c58cc59dull},
};

TEST(TraceEquivalence, ScopedRngGoldenFingerprints) {
  for (const auto& golden : kGoldens) {
    const auto run = traced_run(golden.model, golden.lambda, 42);
    EXPECT_EQ(run.trace_fingerprint, golden.fingerprint)
        << to_string(golden.model) << " lambda=" << golden.lambda
        << " actual=0x" << std::hex << run.trace_fingerprint;
  }
}

TEST(TraceEquivalence, JsonlExportGoldenHashes) {
  for (const auto& golden : kGoldens) {
    std::ostringstream out;
    obs::JsonlTraceWriter writer(out);
    ExperimentConfig config;
    config.model = golden.model;
    config.lambda = golden.lambda;
    config.seed = 42;
    config.record_trace = true;
    config.trace_writer = &writer;
    const auto run = run_experiment(config);
    EXPECT_EQ(run.trace_fingerprint, golden.fingerprint);
    std::uint64_t hash = 14695981039346656037ull;  // FNV-1a offset basis
    for (const char c : out.str()) {
      hash ^= static_cast<unsigned char>(c);
      hash *= 1099511628211ull;
    }
    EXPECT_EQ(hash, golden.jsonl)
        << to_string(golden.model) << " lambda=" << golden.lambda
        << " actual=0x" << std::hex << hash;
  }
}

// The kernel counters ride along with every run; sanity-pin the shape
// (exact values are covered by the event-queue unit tests).
TEST(TraceEquivalence, KernelStatsAreThreadedThroughRuns) {
  const auto upnp = traced_run(SystemModel::kUpnp, 0.30, 42);
  EXPECT_GT(upnp.kernel.events_scheduled, 0u);
  EXPECT_GT(upnp.kernel.events_fired, 0u);
  EXPECT_GT(upnp.kernel.peak_heap_size, 0u);
  EXPECT_GT(upnp.kernel.trace_records, 0u);
  EXPECT_GT(upnp.kernel.tcp_sent, 0u);  // UPnP unicasts over TCP
  EXPECT_GT(upnp.kernel.udp_sent, 0u);  // ssdp:alive multicast

  const auto frodo = traced_run(SystemModel::kFrodoTwoParty, 0.30, 42);
  EXPECT_EQ(frodo.kernel.tcp_sent, 0u);  // FRODO is UDP-only
  EXPECT_GT(frodo.kernel.udp_sent, 0u);
  // Interface failures at lambda=0.3 must actually drop UDP traffic.
  EXPECT_GT(frodo.kernel.udp_copies_dropped_tx +
                frodo.kernel.udp_deliveries_dropped_rx,
            0u);
}

}  // namespace
}  // namespace sdcm::experiment
