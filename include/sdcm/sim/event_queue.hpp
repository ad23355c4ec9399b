#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sdcm/sim/kernel_stats.hpp"
#include "sdcm/sim/time.hpp"

namespace sdcm::sim {

/// Identifies a scheduled event; used to cancel timers. Encodes the
/// event's slab slot in the low 32 bits and the slot's generation in the
/// high 32 bits, so cancel() is an O(1) array lookup and a stale id
/// (slot since reused) is detected by a generation mismatch. Generations
/// start at 1, so no valid id ever equals kInvalidEventId.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// Move-only `void()` callable with a 64-byte small-buffer optimisation.
///
/// std::function's inline buffer (16 bytes in libstdc++) is too small
/// for the kernel's typical captures - a `this` pointer plus a service
/// id, a registry NodeId, a retry counter - so the seed implementation
/// heap-allocated on nearly every lease renewal. 64 bytes covers every
/// timer callback in the tree; larger callables still work but fall back
/// to the heap, and the queue counts them (KernelStats::
/// callback_heap_allocs) so regressions are visible in the benches.
///
/// Contract: the wrapped callable must be nothrow-move-constructible and
/// no more aligned than std::max_align_t to qualify for inline storage;
/// anything else is boxed. Moving an InlineCallback relocates the
/// callable (inline case) or steals the box pointer (heap case); the
/// moved-from wrapper becomes empty. Invoking an empty wrapper is UB
/// (asserted in debug builds), same as std::function minus the throw.
class InlineCallback {
 public:
  static constexpr std::size_t kInlineSize = 64;

  InlineCallback() noexcept = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InlineCallback> &&
                                        std::is_invocable_r_v<void, D&>>>
  // NOLINTNEXTLINE(google-explicit-constructor): converts like std::function
  InlineCallback(F&& fn) {
    if constexpr (fits_inline<D>()) {
      ::new (storage()) D(std::forward<F>(fn));
      vtable_ = inline_vtable<D>();
    } else {
      ::new (storage()) D*(new D(std::forward<F>(fn)));
      vtable_ = heap_vtable<D>();
    }
  }

  InlineCallback(InlineCallback&& other) noexcept { move_from(other); }
  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;
  ~InlineCallback() { reset(); }

  void operator()() {
    assert(vtable_ != nullptr);
    vtable_->invoke(storage());
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return vtable_ != nullptr;
  }

  /// Whether the callable was too big/aligned for the inline buffer.
  [[nodiscard]] bool heap_allocated() const noexcept {
    return vtable_ != nullptr && vtable_->heap;
  }

  void reset() noexcept {
    if (vtable_ != nullptr) {
      vtable_->destroy(storage());
      vtable_ = nullptr;
    }
  }

 private:
  struct VTable {
    void (*invoke)(void* storage);
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* storage) noexcept;
    bool heap;
  };

  template <typename D>
  static constexpr bool fits_inline() noexcept {
    return sizeof(D) <= kInlineSize &&
           alignof(D) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  template <typename D>
  struct InlineOps {
    static void invoke(void* s) { (*static_cast<D*>(s))(); }
    static void relocate(void* from, void* to) noexcept {
      D* src = static_cast<D*>(from);
      ::new (to) D(std::move(*src));
      src->~D();
    }
    static void destroy(void* s) noexcept { static_cast<D*>(s)->~D(); }
  };

  template <typename D>
  struct HeapOps {
    static void invoke(void* s) { (**static_cast<D**>(s))(); }
    static void relocate(void* from, void* to) noexcept {
      ::new (to) D*(*static_cast<D**>(from));
    }
    static void destroy(void* s) noexcept { delete *static_cast<D**>(s); }
  };

  template <typename D>
  static const VTable* inline_vtable() noexcept {
    static constexpr VTable vt{&InlineOps<D>::invoke, &InlineOps<D>::relocate,
                               &InlineOps<D>::destroy, /*heap=*/false};
    return &vt;
  }

  template <typename D>
  static const VTable* heap_vtable() noexcept {
    static constexpr VTable vt{&HeapOps<D>::invoke, &HeapOps<D>::relocate,
                               &HeapOps<D>::destroy, /*heap=*/true};
    return &vt;
  }

  void move_from(InlineCallback& other) noexcept {
    vtable_ = other.vtable_;
    if (vtable_ != nullptr) {
      vtable_->relocate(other.storage(), storage());
      other.vtable_ = nullptr;
    }
  }

  [[nodiscard]] void* storage() noexcept { return storage_; }

  alignas(std::max_align_t) unsigned char storage_[kInlineSize];
  const VTable* vtable_ = nullptr;
};

/// Min-queue of timestamped callbacks with stable FIFO ordering among
/// events scheduled for the same instant (a monotonic sequence number
/// breaks ties, which keeps runs deterministic regardless of heap
/// internals - the exact total order of the seed implementation).
///
/// Layout: callbacks live in a contiguous slab (`slots_`) recycled
/// through a free list, and a 4-ary min-heap (`heap_`) orders them. Each
/// heap entry carries its own sort key {at, seq} next to its slot index,
/// so a sift compares keys inside the contiguous heap array and never
/// loads a slot. A dense side array (`heap_pos_`) records each slot's
/// heap position, so cancel() is a true O(log n) heap erase instead of
/// the seed's tombstone set - the protocol models cancel timers
/// constantly (every renewed lease cancels its expiry timer), and with
/// lazy cancellation the dead entries kept inflating the heap between
/// pops. pop() and cancel() erase bottom-up: the hole walks down along
/// the smallest child to a leaf, and the old last entry sifts up from
/// there, which saves the compare against the moving entry at every
/// level of the way down. 4-ary beats binary here: the hot loop is
/// pop-dominated, and a branching factor of 4 halves the levels (and so
/// the cache misses) of a walk, at two extra compares per level among
/// four adjacent entries.
class EventQueue {
 public:
  using Callback = InlineCallback;

  /// Schedules `cb` at absolute time `at`. Returns an id for cancel().
  EventId schedule(SimTime at, Callback cb);

  /// Cancels a pending event in O(log n). Cancelling an already-fired,
  /// unknown, or stale id is a no-op (protocol code often races a timer
  /// with the message that makes it moot).
  void cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }

  /// Time of the earliest live event; requires !empty().
  [[nodiscard]] SimTime next_time() const noexcept {
    assert(!heap_.empty());
    return heap_[0].at;
  }

  /// Pops and returns the earliest live event. Requires !empty().
  struct Fired {
    SimTime at;
    EventId id;
    Callback cb;
  };
  Fired pop();

  /// Number of live events still queued.
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Points the queue's counters at a shared stats block (the
  /// Simulator's); unbound queues count into a private block.
  void bind_stats(KernelStats* stats) noexcept { stats_ = stats; }
  [[nodiscard]] const KernelStats& stats() const noexcept { return *stats_; }

 private:
  using SlotIndex = std::uint32_t;
  static constexpr SlotIndex kNoPos = ~SlotIndex{0};
  static constexpr std::size_t kArity = 4;

  struct Slot {
    InlineCallback cb;
    std::uint32_t generation = 1;  // bumped on release; stale-id guard
  };

  /// One heap element: the event's sort key and the slot holding it.
  struct Entry {
    SimTime at;
    std::uint64_t seq;  // schedule order; the FIFO tie-break
    SlotIndex slot;
  };

  [[nodiscard]] EventId id_of(SlotIndex index) const noexcept {
    return (std::uint64_t{slots_[index].generation} << 32) | index;
  }
  [[nodiscard]] static bool before(const Entry& a, const Entry& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  SlotIndex acquire_slot();
  void release_slot(SlotIndex index);
  void sift_up(std::size_t hole, Entry moving) noexcept;
  void heap_erase(std::size_t pos) noexcept;

  std::vector<Slot> slots_;           // the slab; index = low half of EventId
  std::vector<SlotIndex> heap_pos_;   // per slot; kNoPos = free / not queued
  std::vector<Entry> heap_;           // 4-ary min-heap ordered by (at, seq)
  std::vector<SlotIndex> free_;       // recycled slot indices, LIFO
  std::uint64_t next_seq_ = 1;
  KernelStats local_stats_;
  KernelStats* stats_ = &local_stats_;
};

}  // namespace sdcm::sim
