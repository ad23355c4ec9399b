#pragma once

#include <algorithm>
#include <cstdint>

namespace sdcm::sim {

/// Hot-path counters for one simulation run. One block lives in the
/// Simulator and is shared by the event queue (scheduling volume), the
/// network (wire traffic per transport) and the trace log (records
/// appended), so a run's entire kernel-level activity can be read - and
/// archived by the benchmarks - from a single struct.
///
/// Counting is always on: every field is a plain increment on a path
/// that already touches the adjacent cache line, so there is no toggle.
struct KernelStats {
  // Event queue.
  std::uint64_t events_scheduled = 0;
  std::uint64_t events_cancelled = 0;
  std::uint64_t events_fired = 0;
  /// High-water mark of pending events (live heap size).
  std::uint64_t peak_heap_size = 0;
  /// Callbacks too large for InlineCallback's inline buffer. Timers and
  /// multicast deliveries fit, so lease-renewal churn adds nothing, but
  /// every unicast Network::transmit that reaches the wire allocates
  /// one: its delivery closure holds a Message and a std::function by
  /// value, more than the 64-byte buffer. A paper run makes about 333.
  std::uint64_t callback_heap_allocs = 0;

  // Network, per transport. "Sent" counts copies that reached the wire
  // (transmitter up, once per redundant multicast copy). UDP drops are
  // split by unit so rates stay comparable across failure directions:
  //  - udp_copies_dropped_tx counts *wire copies* killed before leaving
  //    the source (dead transmitter, or the capacity model's full
  //    queue) - one increment per copy, regardless of how many
  //    receivers it would have reached;
  //  - udp_deliveries_dropped_rx counts *per-destination deliveries*
  //    lost in flight or at a dead receiver - one increment per
  //    destination that missed the copy. For a multicast only
  //    subscribers are destinations, so these drops (and their
  //    net.drop.rx trace records) arise only at subscribers.
  std::uint64_t udp_sent = 0;
  std::uint64_t udp_copies_dropped_tx = 0;
  std::uint64_t udp_deliveries_dropped_rx = 0;
  std::uint64_t tcp_sent = 0;
  std::uint64_t tcp_dropped = 0;

  /// Multicast deliveries the interest-scoped fan-out never performed
  /// because the destination declared no interest in the message type
  /// (DESIGN.md section 14): no event, no RNG draw, no dispatch - one
  /// bulk increment per wire copy.
  std::uint64_t udp_deliveries_skipped = 0;

  // Link-capacity model (workload saturation): copies dropped at a full
  // token-bucket queue (also counted in udp/tcp_dropped), copies that
  // queued and were delayed, and the deepest queue any source reached.
  // All zero unless Network::set_link_capacity enabled the model.
  std::uint64_t capacity_dropped = 0;
  std::uint64_t capacity_delayed = 0;
  std::uint64_t capacity_queue_peak = 0;

  // Trace log records actually appended (recording enabled).
  std::uint64_t trace_records = 0;

  [[nodiscard]] std::uint64_t messages_sent() const noexcept {
    return udp_sent + tcp_sent;
  }
  /// Every drop across both UDP units and TCP; a volume, not a rate -
  /// use the split fields to compare drop rates.
  [[nodiscard]] std::uint64_t messages_dropped() const noexcept {
    return udp_copies_dropped_tx + udp_deliveries_dropped_rx + tcp_dropped;
  }

  void reset() noexcept { *this = KernelStats{}; }
};

/// Folds one run's counters into a campaign-level total: every counter
/// adds, except the heap high-water mark, which only makes sense as a
/// max across runs.
inline void accumulate(KernelStats& total, const KernelStats& run) noexcept {
  total.events_scheduled += run.events_scheduled;
  total.events_cancelled += run.events_cancelled;
  total.events_fired += run.events_fired;
  total.peak_heap_size = std::max(total.peak_heap_size, run.peak_heap_size);
  total.callback_heap_allocs += run.callback_heap_allocs;
  total.udp_sent += run.udp_sent;
  total.udp_copies_dropped_tx += run.udp_copies_dropped_tx;
  total.udp_deliveries_dropped_rx += run.udp_deliveries_dropped_rx;
  total.udp_deliveries_skipped += run.udp_deliveries_skipped;
  total.tcp_sent += run.tcp_sent;
  total.tcp_dropped += run.tcp_dropped;
  total.capacity_dropped += run.capacity_dropped;
  total.capacity_delayed += run.capacity_delayed;
  total.capacity_queue_peak =
      std::max(total.capacity_queue_peak, run.capacity_queue_peak);
  total.trace_records += run.trace_records;
}

}  // namespace sdcm::sim
