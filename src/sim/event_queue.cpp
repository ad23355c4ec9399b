#include "sdcm/sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <utility>

namespace sdcm::sim {

EventQueue::SlotIndex EventQueue::acquire_slot() {
  if (!free_.empty()) {
    const SlotIndex index = free_.back();
    free_.pop_back();
    return index;
  }
  assert(slots_.size() < kRingTag);
  slots_.emplace_back();
  heap_pos_.push_back(kNoPos);
  return static_cast<SlotIndex>(slots_.size() - 1);
}

void EventQueue::reserve(std::size_t more) {
  const std::size_t fresh = more > free_.size() ? more - free_.size() : 0;
  const std::size_t slots = std::bit_ceil(slots_.size() + fresh);
  slots_.reserve(slots);
  heap_pos_.reserve(slots);
  heap_.reserve(std::bit_ceil(heap_.size() + more));
}

void EventQueue::retire(SlotIndex index) noexcept {
  Slot& slot = slots_[index];
  slot.cb.reset();
  heap_pos_[index] = kNoPos;
  // Generation 0 is reserved so no id collides with kInvalidEventId.
  if (++slot.generation == 0) slot.generation = 1;
}

std::uint32_t EventQueue::first_bucket() const noexcept {
  // Circular scan from floor's bucket: its word from that bit up, the
  // other word, then its word below that bit (the wrap).
  const auto start = static_cast<std::uint32_t>(floor_) & (kRingSpan - 1);
  const std::uint32_t word = start >> 6;
  const std::uint32_t bit = start & 63;
  const auto lowest = [](std::uint64_t bits) {
    return static_cast<std::uint32_t>(std::countr_zero(bits));
  };
  const std::uint64_t above = ring_mask_[word] >> bit << bit;
  if (above != 0) return word * 64 + lowest(above);
  const std::uint64_t other = ring_mask_[word ^ 1];
  if (other != 0) return (word ^ 1) * 64 + lowest(other);
  assert(ring_mask_[word] != 0);
  return word * 64 + lowest(ring_mask_[word]);
}

void EventQueue::drop_dead_head(std::uint32_t b) {
  SlotIndex head = ring_head_[b];
  while (heap_pos_[head] == kNoPos) {
    free_.push_back(head);
    if (head == ring_tail_[b]) {
      ring_mask_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
      return;
    }
    head = slots_[head].ring_next;
  }
  ring_head_[b] = head;
}

void EventQueue::sift_up(std::size_t hole, Entry moving) noexcept {
  while (hole > 0) {
    const std::size_t parent = (hole - 1) / kArity;
    if (!before(moving, heap_[parent])) break;
    heap_[hole] = heap_[parent];
    heap_pos_[heap_[hole].slot] = static_cast<SlotIndex>(hole);
    hole = parent;
  }
  heap_[hole] = moving;
  heap_pos_[moving.slot] = static_cast<SlotIndex>(hole);
}

void EventQueue::heap_erase(std::size_t pos) noexcept {
  const Entry last = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  if (pos == n) return;
  // Walk the hole down along the smallest child to a leaf, then sift the
  // old last entry up from there: it came from the bottom, so it nearly
  // always settles near the leaf, and the way down never compares it.
  for (;;) {
    const std::size_t first_child = pos * kArity + 1;
    if (first_child >= n) break;
    const std::size_t end_child = std::min(first_child + kArity, n);
    std::size_t best = first_child;
    for (std::size_t child = first_child + 1; child < end_child; ++child) {
      if (before(heap_[child], heap_[best])) best = child;
    }
    heap_[pos] = heap_[best];
    heap_pos_[heap_[pos].slot] = static_cast<SlotIndex>(pos);
    pos = best;
  }
  sift_up(pos, last);
}

EventId EventQueue::enqueue(SimTime at, SlotIndex index) {
  ++stats_->events_scheduled;
  // Unsigned, so a time below the floor wraps high and takes the heap.
  if (static_cast<std::uint64_t>(at - floor_) < kRingSpan) {
    const auto b = static_cast<std::uint32_t>(at) & (kRingSpan - 1);
    std::uint64_t& word = ring_mask_[b >> 6];
    const std::uint64_t bit = std::uint64_t{1} << (b & 63);
    if ((word & bit) == 0) {
      word |= bit;
      ring_head_[b] = index;
    } else {
      slots_[ring_tail_[b]].ring_next = index;
    }
    ring_tail_[b] = index;
    heap_pos_[index] = kRingTag + b;
    ++ring_live_;
  } else {
    heap_.emplace_back();
    sift_up(heap_.size() - 1, Entry{at, next_seq_++, index});
  }
  stats_->peak_heap_size = std::max<std::uint64_t>(stats_->peak_heap_size,
                                                    size());
  return id_of(index);
}

void EventQueue::cancel(EventId id) {
  const auto index = static_cast<SlotIndex>(id & 0xFFFFFFFFull);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (generation == 0 || index >= slots_.size()) return;
  const SlotIndex pos = heap_pos_[index];
  if (slots_[index].generation != generation || pos == kNoPos) return;
  ++stats_->events_cancelled;
  if (pos < kRingTag) {
    heap_erase(pos);
    retire(index);
    free_.push_back(index);
    return;
  }
  // A ring entry stays linked as a tombstone until it reaches its
  // bucket's head; if it is the head already, free it now.
  retire(index);
  --ring_live_;
  const std::uint32_t b = pos - kRingTag;
  if (ring_head_[b] == index) drop_dead_head(b);
}

EventQueue::Fired EventQueue::pop() {
  assert(!empty());
  // Pick the tier first, so one named Fired is returned (NRVO): every
  // extra move of it relocates the callback through its vtable.
  std::uint32_t bucket = kRingSpan;  // kRingSpan: the heap top wins
  SimTime at = 0;
  if (ring_live_ != 0) {
    const std::uint32_t b = first_bucket();
    at = bucket_time(b);
    if (heap_.empty() || at < heap_[0].at) bucket = b;
  }
  SlotIndex index;
  if (bucket != kRingSpan) {
    index = ring_head_[bucket];
  } else {
    at = heap_[0].at;
    index = heap_[0].slot;
    heap_erase(0);
  }
  Fired fired{at, id_of(index), std::move(slots_[index].cb)};
  retire(index);
  if (bucket != kRingSpan) {
    --ring_live_;
    drop_dead_head(bucket);  // frees `index`, now dead, and any tombstones
  } else {
    free_.push_back(index);
  }
  floor_ = std::max(floor_, at);
  ++stats_->events_fired;
  return fired;
}

}  // namespace sdcm::sim
