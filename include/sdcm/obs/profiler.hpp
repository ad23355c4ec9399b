#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

/// Compile-time wall-clock profiling toggle.
///
/// Builds configured with -DSDCM_PROFILE=ON define SDCM_PROFILE=1
/// globally and the event loop compiles in per-event steady_clock
/// attribution; the default build compiles the hooks out entirely, so
/// the kernel fast path pays nothing - not even a branch (the bench
/// gate in CI proves it). The Profiler class itself is always
/// compiled: phase timers are cold-path (a handful of scopes per run)
/// and stay available in every build, only the per-event hot-path
/// hooks are gated.
///
/// Usage:
///   SDCM_PROFILE_ONLY(sim.profile_attribute(msg.type.id()));
///   SDCM_PROFILE_SITE(sim, "timer.upnp.renew");   // in a timer callback
///   SDCM_PROFILE_TIMER(timer_, "timer.slp.announce");  // PeriodicTimer
#if defined(SDCM_PROFILE) && SDCM_PROFILE
#define SDCM_PROFILE_ENABLED 1
#define SDCM_PROFILE_ONLY(...) __VA_ARGS__
#else
#define SDCM_PROFILE_ENABLED 0
#define SDCM_PROFILE_ONLY(...)
#endif

namespace sdcm::obs {

/// Shared fixed per-event bucket bounds, in nanoseconds. Every
/// attribution site histograms against the same bounds so campaign
/// profiles merge bucket-for-bucket. Inline so the sim kernel's
/// hot-path hooks stay header-only (sdcm_sim never links sdcm_obs).
inline const std::vector<std::uint64_t>& profile_ns_bounds() {
  static const std::vector<std::uint64_t> bounds{
      250, 1000, 4000, 16000, 64000, 256000, 1024000};
  return bounds;
}

/// Process-wide memory watermarks: peak RSS (KB, VmHWM from
/// /proc/self/status, else getrusage) and current heap bytes (glibc
/// mallinfo2; 0 where unavailable and under AddressSanitizer).
struct MemorySample {
  std::uint64_t peak_rss_kb = 0;
  std::uint64_t heap_bytes = 0;
};
MemorySample sample_memory() noexcept;

/// One occupied bucket of the shared profile_ns_bounds() histogram.
struct ProfileBucket {
  /// Inclusive upper bound in ns; UINT64_MAX for the overflow bucket.
  std::uint64_t upper = 0;
  std::uint64_t count = 0;
};

/// One attribution site's aggregate in a snapshot, resolved to its
/// interned name.
struct ProfileEntry {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t max_ns = 0;
  /// Occupied buckets, ascending by upper bound.
  std::vector<ProfileBucket> buckets;
};

/// One phase timer's aggregate in a snapshot.
struct PhaseEntry {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;
  /// Peak-RSS / heap watermarks observed at this phase's end boundaries
  /// (max over ends; 0 when memory sampling is unavailable).
  std::uint64_t peak_rss_kb = 0;
  std::uint64_t heap_bytes = 0;
};

/// A run's complete profile: event-loop wall time attributed per event
/// type, plus the cold-path phase hierarchy. `events` and `phases` are
/// sorted bytewise-ascending by name; the per-event totals sum exactly
/// to `loop_ns` (the chained-timestamp discipline charges every
/// nanosecond of the loop, dispatch overhead included, to some site).
struct RunProfile {
  std::uint64_t runs = 0;
  std::uint64_t loop_ns = 0;
  std::uint64_t loop_events = 0;
  std::vector<ProfileEntry> events;
  std::vector<PhaseEntry> phases;

  [[nodiscard]] std::uint64_t attributed_ns() const noexcept;
  [[nodiscard]] bool empty() const noexcept {
    return events.empty() && phases.empty() && loop_events == 0;
  }
  /// Adds `other` into this profile: counts, totals and buckets add;
  /// memory watermarks max. Associative and commutative, so sharded
  /// campaign profiles merge to the unsharded result.
  void merge(const RunProfile& other);
};

/// Sampling-free wall-clock attribution for one simulation run.
///
/// Hot path (event loop, compiled in only under SDCM_PROFILE=1): the
/// loop calls loop_begin() once, then event_begin() / event_end()
/// around every callback. event_end() takes a single steady_clock
/// reading and charges the time since the previous reading to the
/// event's site - so each event is billed for its own dispatch (queue
/// pop) plus its callback, and the per-site totals sum exactly to the
/// loop's wall time. The site defaults to 0 ("(unattributed)") and is
/// set by the callback itself via attribute(): network delivery
/// lambdas pass their MessageType atom id, timer callbacks an
/// interned "timer.<module>.<site>" label. One clock call per event,
/// no sampling, no allocation after warm-up.
///
/// Cold path (always compiled): phase_record() accumulates hierarchical
/// phase timers ("phase.topology_build", ...) with memory watermarks
/// sampled at each phase end; PhaseScope is the RAII wrapper.
///
/// Site ids are sim::Atom ids, held here as plain integers - name
/// resolution happens in snapshot(), implemented in
/// src/obs/profiler.cpp.
class Profiler {
 public:
  Profiler() = default;

  // -- hot path -----------------------------------------------------
  void loop_begin() noexcept {
    mark_ = Clock::now();
    loop_start_ = mark_;
  }
  void event_begin() noexcept { current_ = 0; }
  void attribute(std::uint32_t site) noexcept { current_ = site; }
  void event_end() {
    const Clock::time_point t = Clock::now();
    charge(current_, delta_ns(mark_, t));
    mark_ = t;
    ++loop_events_;
  }
  void loop_end() noexcept {
    loop_ns_ += delta_ns(loop_start_, Clock::now());
  }

  // -- cold path ----------------------------------------------------
  /// Charges `ns` to phase `site` and folds in a memory sample.
  /// Defined in profiler.cpp, which holds the platform probes.
  void phase_record(std::uint32_t site, std::uint64_t ns);

  /// Snapshot with interned names resolved, entries sorted bytewise by
  /// name, ready for export/merge. `runs` is 1.
  [[nodiscard]] RunProfile snapshot() const;

  [[nodiscard]] std::uint64_t loop_ns() const noexcept { return loop_ns_; }
  [[nodiscard]] std::uint64_t loop_events() const noexcept {
    return loop_events_;
  }

 private:
  using Clock = std::chrono::steady_clock;

  static std::uint64_t delta_ns(Clock::time_point from,
                                Clock::time_point to) noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
            .count());
  }

  void charge(std::uint32_t site, std::uint64_t ns) {
    if (site >= sites_.size()) sites_.resize(site + 1);
    Site& s = sites_[site];
    if (s.bucket_counts.empty()) {
      s.bucket_counts.assign(profile_ns_bounds().size() + 1, 0);
    }
    ++s.count;
    s.total_ns += ns;
    if (ns > s.max_ns) s.max_ns = ns;
    ++s.bucket_counts[bucket_of(ns)];
  }

  [[nodiscard]] static std::size_t bucket_of(std::uint64_t ns) noexcept {
    const auto& bounds = profile_ns_bounds();
    return static_cast<std::size_t>(
        std::lower_bound(bounds.begin(), bounds.end(), ns) - bounds.begin());
  }

  struct Site {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t max_ns = 0;
    /// bounds.size() + 1 slots (last = overflow), matching
    /// profile_ns_bounds().
    std::vector<std::uint64_t> bucket_counts;
  };
  struct Phase {
    std::uint32_t site = 0;
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t peak_rss_kb = 0;
    std::uint64_t heap_bytes = 0;
  };

  std::vector<Site> sites_;  // dense, indexed by atom id
  /// A run times a handful of phases, whose sites are interned after the
  /// whole static vocabulary: a short list beats a table dense by id.
  std::vector<Phase> phases_;
  std::uint32_t current_ = 0;
  Clock::time_point mark_{};
  Clock::time_point loop_start_{};
  std::uint64_t loop_ns_ = 0;
  std::uint64_t loop_events_ = 0;
};

/// RAII phase timer. Null-profiler safe (scope is then a no-op), so
/// call sites need no branching; ~7 scopes per run means the runtime
/// check costs nothing against the compile-time-zero contract, which
/// covers only the per-event hot path.
class PhaseScope {
 public:
  PhaseScope(Profiler* profiler, std::uint32_t site) noexcept
      : profiler_(profiler), site_(site) {
    if (profiler_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~PhaseScope() {
    if (profiler_ != nullptr) {
      profiler_->phase_record(
          site_, static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         std::chrono::steady_clock::now() - start_)
                         .count()));
    }
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Profiler* profiler_;
  std::uint32_t site_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace sdcm::obs
