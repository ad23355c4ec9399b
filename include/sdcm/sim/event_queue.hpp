#pragma once

#include <algorithm>
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
    emplace<D>(std::forward<F>(fn));
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

  /// Replaces the wrapped callable with `fn`, built directly in this
  /// wrapper's storage: no temporary InlineCallback is constructed and
  /// relocated on the way in. Same inline-or-boxed rule as the
  /// converting constructor; an InlineCallback rvalue is moved in.
  template <typename F>
  void assign(F&& fn) {
    using D = std::decay_t<F>;
    if constexpr (std::is_same_v<D, InlineCallback>) {
      static_assert(!std::is_lvalue_reference_v<F>,
                    "move an InlineCallback in; it is move-only");
      *this = std::move(fn);
    } else {
      static_assert(std::is_invocable_r_v<void, D&>,
                    "an event callback must be callable as void()");
      reset();
      emplace<D>(std::forward<F>(fn));
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

  /// Constructs `fn` as a D into the (empty) storage.
  template <typename D, typename F>
  void emplace(F&& fn) {
    if constexpr (fits_inline<D>()) {
      ::new (storage()) D(std::forward<F>(fn));
      vtable_ = inline_vtable<D>();
    } else {
      ::new (storage()) D*(new D(std::forward<F>(fn)));
      vtable_ = heap_vtable<D>();
    }
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
/// events scheduled for the same instant: events pop in (at, schedule
/// order), the exact total order of the seed implementation, which keeps
/// runs deterministic regardless of queue internals.
///
/// Layout: callbacks live in a contiguous slab (`slots_`) recycled
/// through a free list and are ordered by one of two tiers. The slab
/// grows by doubling, which relocates every live callback through its
/// vtable; reserve() grows it once ahead of a known batch.
///
///  - The calendar ring holds every event due in [floor, floor + 128 us),
///    where `floor` is the time of the last pop. Bucket `at & 127` is a
///    FIFO of slots threaded through Slot::ring_next, found through a
///    128-bit occupancy mask. Because the ring spans exactly 128 us, one
///    bucket holds one instant. The paper's LAN delivers every message
///    10-100 us after it is sent (Table 3), so network deliveries land
///    here and never touch the heap. 128 is the first power of two
///    above that 100 us maximum, so the bucket is a mask of `at`; the
///    headroom keeps a delivery in the ring when the clock stands a
///    little past the last pop (run_until parks it at its horizon).
///  - A 4-ary min-heap (`heap_`) of keyed entries {at, seq, slot} holds
///    everything later (and, on a bare queue, anything below the
///    floor). A sift compares keys inside the contiguous heap array and
///    never loads a slot; a dense side array (`heap_pos_`) records each
///    slot's heap position, so cancel() is an O(log n) erase. pop() and
///    cancel() erase bottom-up: the hole walks down the smallest child
///    to a leaf, and the old last entry sifts up from there.
///
/// pop() takes the earlier of the ring head and the heap top, and the
/// heap wins a same-instant tie. That is the (at, seq) order: the floor
/// never falls, so a heap entry due at T was scheduled under a floor
/// <= T - 128, before any ring entry due at T (scheduled under a floor
/// > T - 128). Ring entries therefore need no seq. A cancelled ring
/// entry is tombstoned: its generation is bumped and its callback
/// destroyed at once, and its slot rejoins the free list when it
/// reaches its bucket's head, so the FIFO needs no back link. Every
/// bucket's head is live, so next_time() stays exact.
class EventQueue {
 public:
  using Callback = InlineCallback;

  /// Schedules `fn` (any `void()` callable, or a Callback) at absolute
  /// time `at`, constructing it in place in its slot. Returns an id for
  /// cancel().
  template <typename F>
  EventId schedule(SimTime at, F&& fn) {
    const SlotIndex index = acquire_slot();
    InlineCallback& cb = slots_[index].cb;
    cb.assign(std::forward<F>(fn));
    if (cb.heap_allocated()) ++stats_->callback_heap_allocs;
    return enqueue(at, index);
  }

  /// Cancels a pending event: an O(log n) heap erase, or an O(1)
  /// tombstone in the ring. Cancelling an already-fired, unknown, or
  /// stale id is a no-op (protocol code often races a timer with the
  /// message that makes it moot).
  void cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept {
    return heap_.empty() && ring_live_ == 0;
  }

  /// Time of the earliest live event; requires !empty().
  [[nodiscard]] SimTime next_time() const noexcept {
    assert(!empty());
    if (ring_live_ == 0) return heap_[0].at;
    const SimTime ring_at = bucket_time(first_bucket());
    return heap_.empty() ? ring_at : std::min(ring_at, heap_[0].at);
  }

  /// Pops and returns the earliest live event. Requires !empty().
  struct Fired {
    SimTime at;
    EventId id;
    Callback cb;
  };
  Fired pop();

  /// Number of live events still queued, in both tiers.
  [[nodiscard]] std::size_t size() const noexcept {
    return heap_.size() + ring_live_;
  }

  /// Grows the slab for `more` further events in one step, so that
  /// scheduling them relocates no live callback: the slot slab and
  /// heap_pos_ to the bit_ceil of what they need net of free slots, the
  /// heap to the bit_ceil of its size plus `more` (the capacities
  /// doubling would have reached anyway). Ids, order and counters are
  /// unaffected.
  void reserve(std::size_t more);

  /// Points the queue's counters at a shared stats block (the
  /// Simulator's); unbound queues count into a private block.
  void bind_stats(KernelStats* stats) noexcept { stats_ = stats; }
  [[nodiscard]] const KernelStats& stats() const noexcept { return *stats_; }

 private:
  using SlotIndex = std::uint32_t;
  static constexpr std::size_t kArity = 4;
  /// Width of the calendar ring in microseconds, one bucket each.
  static constexpr std::uint32_t kRingSpan = 128;
  /// heap_pos_ values at or above kRingTag are not heap positions:
  /// kRingTag + b marks a live entry of ring bucket b, and kNoPos a slot
  /// that is free or a tombstone waiting in its bucket.
  static constexpr SlotIndex kNoPos = ~SlotIndex{0};
  static constexpr SlotIndex kRingTag = kNoPos - kRingSpan;

  struct Slot {
    InlineCallback cb;
    std::uint32_t generation = 1;  // bumped on fire/cancel; stale-id guard
    SlotIndex ring_next = kNoPos;  // next slot of its ring bucket's FIFO
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

  /// The occupied bucket holding the ring's earliest instant: the first
  /// set mask bit at or after floor's bucket, wrapping. Requires a live
  /// ring entry.
  [[nodiscard]] std::uint32_t first_bucket() const noexcept;
  /// The instant bucket `b` holds: the one time in [floor, floor + 128)
  /// that maps to it.
  [[nodiscard]] SimTime bucket_time(std::uint32_t b) const noexcept {
    return floor_ + static_cast<SimTime>((b - static_cast<std::uint32_t>(
                                                  floor_)) &
                                         (kRingSpan - 1));
  }

  SlotIndex acquire_slot();
  EventId enqueue(SimTime at, SlotIndex index);
  /// Ends a slot's event (fired or cancelled): destroys the callback
  /// and bumps the generation, so the event's id goes stale.
  void retire(SlotIndex index) noexcept;
  /// Frees the tombstones at the head of bucket `b`, clearing its mask
  /// bit when nothing live is left.
  void drop_dead_head(std::uint32_t b);
  void sift_up(std::size_t hole, Entry moving) noexcept;
  void heap_erase(std::size_t pos) noexcept;

  std::vector<Slot> slots_;           // the slab; index = low half of EventId
  std::vector<SlotIndex> heap_pos_;   // per slot: heap position or a tag
  std::vector<Entry> heap_;           // 4-ary min-heap ordered by (at, seq)
  std::vector<SlotIndex> free_;       // recycled slot indices, LIFO
  std::uint64_t next_seq_ = 1;
  SimTime floor_ = 0;                 // time of the last pop; never falls
  std::size_t ring_live_ = 0;         // live (non-tombstone) ring entries
  std::uint64_t ring_mask_[2] = {};   // bit b: bucket b is non-empty
  SlotIndex ring_head_[kRingSpan] = {};  // read only where the mask bit
  SlotIndex ring_tail_[kRingSpan] = {};  // of the bucket is set
  KernelStats local_stats_;
  KernelStats* stats_ = &local_stats_;
};

}  // namespace sdcm::sim
