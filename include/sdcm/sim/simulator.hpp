#pragma once

#include <cassert>
#include <functional>
#include <utility>

#include "sdcm/obs/profiler.hpp"
#include "sdcm/sim/event_queue.hpp"
#include "sdcm/sim/kernel_stats.hpp"
#include "sdcm/sim/random.hpp"
#include "sdcm/sim/time.hpp"
#include "sdcm/sim/trace.hpp"

namespace sdcm::sim {

/// The discrete-event simulation engine: a clock, an event queue, the
/// run's master random stream, and the trace log. One Simulator instance
/// is one simulation run; runs are completely independent, which is what
/// lets the experiment harness execute them on parallel threads.
class Simulator {
 public:
  explicit Simulator(std::uint64_t seed) : rng_(seed) {
    queue_.bind_stats(&stats_);
    trace_.bind_stats(&stats_);
  }

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedules `fn` after `delay` (>= 0) from now. Returns a cancellable
  /// id. Like every scheduling call here, it forwards `fn` (any `void()`
  /// callable, or an EventQueue::Callback) to be built in its queue slot.
  template <typename F>
  EventId schedule_in(SimDuration delay, F&& fn) {
    assert(delay >= 0);
    return queue_.schedule(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules `fn` at an absolute time (>= now).
  template <typename F>
  EventId schedule_at(SimTime at, F&& fn) {
    assert(at >= now_);
    return queue_.schedule(at, std::forward<F>(fn));
  }

  void cancel(EventId id) { queue_.cancel(id); }

  /// Grows the event queue once for `more` further events (see
  /// EventQueue::reserve); for a caller about to schedule a known batch.
  void reserve_events(std::size_t more) { queue_.reserve(more); }

  /// The cancel-then-rearm idiom of every lease/renewal site: cancels
  /// `id` when pending, schedules `fn` after `delay`, and stores the new
  /// id back into `id` (also returned for convenience).
  template <typename F>
  EventId reschedule_in(EventId& id, SimDuration delay, F&& fn) {
    if (id != kInvalidEventId) queue_.cancel(id);
    id = schedule_in(delay, std::forward<F>(fn));
    return id;
  }

  /// Absolute-time variant of reschedule_in.
  template <typename F>
  EventId reschedule_at(EventId& id, SimTime at, F&& fn) {
    if (id != kInvalidEventId) queue_.cancel(id);
    id = schedule_at(at, std::forward<F>(fn));
    return id;
  }

  /// Runs events up to and including time `until`, then stops. The clock
  /// finishes at exactly `until` even if the queue drains early, so that
  /// end-of-run bookkeeping sees the full horizon.
  void run_until(SimTime until);

  /// Runs until the event queue drains completely.
  void run_all();

  /// Stops the event loop after the current callback returns.
  void stop() noexcept { stopped_ = true; }

  [[nodiscard]] std::size_t pending_events() const noexcept {
    return queue_.size();
  }
  [[nodiscard]] std::uint64_t executed_events() const noexcept {
    return executed_;
  }

  /// Master random stream. Components should `fork` their own child
  /// stream once at construction rather than drawing from this directly,
  /// so their draw sequences stay independent.
  Random& rng() noexcept { return rng_; }

  TraceLog& trace() noexcept { return trace_; }
  const TraceLog& trace() const noexcept { return trace_; }

  /// The run's shared kernel counter block (event queue volume, wire
  /// traffic, trace records). See sim::KernelStats.
  [[nodiscard]] KernelStats& kernel_stats() noexcept { return stats_; }
  [[nodiscard]] const KernelStats& kernel_stats() const noexcept {
    return stats_;
  }

  /// Attaches a wall-clock profiler (nullptr detaches). The member is
  /// unconditional, so the class layout never depends on the toggle,
  /// but the event loop only reads it under SDCM_PROFILE=1 - a default
  /// build pays nothing per event regardless of attachment.
  void set_profiler(obs::Profiler* profiler) noexcept {
    profiler_ = profiler;
  }
  [[nodiscard]] obs::Profiler* profiler() const noexcept {
    return profiler_;
  }

  /// Attributes the currently dispatching event to `site` (an interned
  /// net::MessageType atom id; see obs/profile_site.hpp). Compiled to
  /// nothing unless SDCM_PROFILE=1.
  void profile_attribute(std::uint32_t site) noexcept {
#if SDCM_PROFILE_ENABLED
    if (profiler_ != nullptr) profiler_->attribute(site);
#else
    static_cast<void>(site);
#endif
  }

 private:
  SimTime now_ = 0;
  bool stopped_ = false;
  std::uint64_t executed_ = 0;
  KernelStats stats_;
  EventQueue queue_;
  Random rng_;
  TraceLog trace_;
  obs::Profiler* profiler_ = nullptr;
};

/// RAII helper for periodic behaviour (announcements, lease renewals).
/// Reschedules itself every `period` until destroyed or stop()ped; the
/// first firing is after `initial_delay`. Periods may be jittered by the
/// caller via the callback returning the next period.
class PeriodicTimer {
 public:
  /// `next_period` is called after each firing and returns the delay to
  /// the next one; returning a negative value stops the timer.
  using PeriodFn = std::function<SimDuration()>;
  using TickFn = std::function<void()>;

  PeriodicTimer() = default;
  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;
  ~PeriodicTimer() { stop(); }

  void start(Simulator& simulator, SimDuration initial_delay, TickFn on_tick,
             PeriodFn next_period);

  /// Fixed-period convenience overload.
  void start(Simulator& simulator, SimDuration initial_delay,
             SimDuration period, TickFn on_tick);

  void stop() noexcept;
  [[nodiscard]] bool running() const noexcept { return sim_ != nullptr; }

  /// Profiling label for this timer's ticks: every dispatched on_tick
  /// is attributed to `site` (an interned atom id). Survives stop() /
  /// restart; set it once via SDCM_PROFILE_TIMER (profile_site.hpp).
  void set_profile_site(std::uint32_t site) noexcept {
    profile_site_ = site;
  }

 private:
  void arm(SimDuration delay);

  Simulator* sim_ = nullptr;
  EventId pending_ = kInvalidEventId;
  TickFn on_tick_;
  PeriodFn next_period_;
  std::uint32_t profile_site_ = 0;
};

}  // namespace sdcm::sim
