#pragma once

#include <algorithm>
#include <cstdint>
#include <iterator>

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
  /// Callbacks too large for InlineCallback's inline buffer. Every
  /// callback the library schedules fits: timers capture a few ids,
  /// multicast deliveries {network, wire, dst, lost}, and unicast/TCP
  /// arrivals {network, in-flight slot}, so runs of all six models
  /// count 0 and any other value flags a new oversized closure.
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

/// One KernelStats counter: its JSON key, its member, and whether it
/// folds across runs as a high-water mark (max) instead of a sum.
struct KernelStatsField {
  const char* name;
  std::uint64_t KernelStats::*member;
  bool peak;
};

/// Every KernelStats counter, in the key order of the campaign log's and
/// the campaign summary's "kernel" objects. Walked by accumulate, the
/// campaign-log writer and reader, and the summary writer.
inline constexpr KernelStatsField kKernelStatsFields[] = {
    {"events_scheduled", &KernelStats::events_scheduled, false},
    {"events_cancelled", &KernelStats::events_cancelled, false},
    {"events_fired", &KernelStats::events_fired, false},
    {"peak_heap_size", &KernelStats::peak_heap_size, true},
    {"callback_heap_allocs", &KernelStats::callback_heap_allocs, false},
    {"udp_sent", &KernelStats::udp_sent, false},
    {"udp_copies_dropped_tx", &KernelStats::udp_copies_dropped_tx, false},
    {"udp_deliveries_dropped_rx", &KernelStats::udp_deliveries_dropped_rx,
     false},
    {"udp_deliveries_skipped", &KernelStats::udp_deliveries_skipped, false},
    {"tcp_sent", &KernelStats::tcp_sent, false},
    {"tcp_dropped", &KernelStats::tcp_dropped, false},
    {"capacity_dropped", &KernelStats::capacity_dropped, false},
    {"capacity_delayed", &KernelStats::capacity_delayed, false},
    {"capacity_queue_peak", &KernelStats::capacity_queue_peak, true},
    {"trace_records", &KernelStats::trace_records, false},
};
static_assert(std::size(kKernelStatsFields) * sizeof(std::uint64_t) ==
                  sizeof(KernelStats),
              "every KernelStats counter needs a kKernelStatsFields row");

/// Folds one run's counters into a campaign-level total: every counter
/// adds, except the high-water marks, which only make sense as a max
/// across runs.
inline void accumulate(KernelStats& total, const KernelStats& run) noexcept {
  for (const KernelStatsField& field : kKernelStatsFields) {
    std::uint64_t& folded = total.*field.member;
    const std::uint64_t value = run.*field.member;
    folded = field.peak ? std::max(folded, value) : folded + value;
  }
}

}  // namespace sdcm::sim
