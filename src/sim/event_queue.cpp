#include "sdcm/sim/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace sdcm::sim {

EventQueue::SlotIndex EventQueue::acquire_slot() {
  if (!free_.empty()) {
    const SlotIndex index = free_.back();
    free_.pop_back();
    return index;
  }
  assert(slots_.size() < kNoPos);
  slots_.emplace_back();
  heap_pos_.push_back(kNoPos);
  return static_cast<SlotIndex>(slots_.size() - 1);
}

void EventQueue::release_slot(SlotIndex index) {
  Slot& slot = slots_[index];
  slot.cb.reset();
  heap_pos_[index] = kNoPos;
  // Generation 0 is reserved so no id collides with kInvalidEventId.
  if (++slot.generation == 0) slot.generation = 1;
  free_.push_back(index);
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

EventId EventQueue::schedule(SimTime at, Callback cb) {
  const SlotIndex index = acquire_slot();
  Slot& slot = slots_[index];
  slot.cb = std::move(cb);
  if (slot.cb.heap_allocated()) ++stats_->callback_heap_allocs;
  heap_.emplace_back();
  sift_up(heap_.size() - 1, Entry{at, next_seq_++, index});
  ++stats_->events_scheduled;
  if (heap_.size() > stats_->peak_heap_size) {
    stats_->peak_heap_size = heap_.size();
  }
  return id_of(index);
}

void EventQueue::cancel(EventId id) {
  const auto index = static_cast<SlotIndex>(id & 0xFFFFFFFFull);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (generation == 0 || index >= slots_.size()) return;
  if (slots_[index].generation != generation || heap_pos_[index] == kNoPos) {
    return;
  }
  heap_erase(heap_pos_[index]);
  release_slot(index);
  ++stats_->events_cancelled;
}

EventQueue::Fired EventQueue::pop() {
  assert(!heap_.empty());
  const Entry top = heap_[0];
  Fired fired{top.at, id_of(top.slot), std::move(slots_[top.slot].cb)};
  heap_erase(0);
  release_slot(top.slot);
  ++stats_->events_fired;
  return fired;
}

}  // namespace sdcm::sim
