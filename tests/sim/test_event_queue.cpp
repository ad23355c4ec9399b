#include "sdcm/sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "sdcm/sim/random.hpp"

namespace sdcm::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(30, [&] { order.push_back(3); });
  q.schedule(10, [&] { order.push_back(1); });
  q.schedule(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeIsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(100, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().cb();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliestLive) {
  EventQueue q;
  const auto early = q.schedule(5, [] {});
  q.schedule(50, [] {});
  EXPECT_EQ(q.next_time(), 5);
  q.cancel(early);
  EXPECT_EQ(q.next_time(), 50);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  bool fired = false;
  const auto id = q.schedule(10, [&] { fired = true; });
  q.cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelUnknownOrFiredIsNoop) {
  EventQueue q;
  const auto id = q.schedule(1, [] {});
  auto fired = q.pop();
  fired.cb();
  q.cancel(id);             // already fired
  q.cancel(9999);           // never existed
  q.cancel(kInvalidEventId);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(1, [&] { order.push_back(1); });
  const auto mid = q.schedule(2, [&] { order.push_back(2); });
  q.schedule(3, [&] { order.push_back(3); });
  q.cancel(mid);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, PopReturnsScheduledTimeAndId) {
  EventQueue q;
  const auto id = q.schedule(77, [] {});
  const auto fired = q.pop();
  EXPECT_EQ(fired.at, 77);
  EXPECT_EQ(fired.id, id);
}

TEST(EventQueue, ManyCancellationsDoNotLeak) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 1000; ++i) ids.push_back(q.schedule(i, [] {}));
  for (const auto id : ids) q.cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  // A fresh event still works after mass cancellation.
  bool fired = false;
  q.schedule(5000, [&] { fired = true; });
  q.pop().cb();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, StaleCancelAfterSlotReuseIsNoop) {
  // The slab recycles slots: after `first` is cancelled, the next
  // schedule reuses its slot. A second cancel of the stale id must not
  // kill the new tenant (generation mismatch).
  EventQueue q;
  const auto first = q.schedule(10, [] {});
  q.cancel(first);
  bool fired = false;
  const auto second = q.schedule(20, [&] { fired = true; });
  EXPECT_NE(first, second);
  q.cancel(first);  // stale: same slot, older generation
  ASSERT_EQ(q.size(), 1u);
  q.pop().cb();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, StaleCancelAfterFireAndReuseIsNoop) {
  EventQueue q;
  const auto first = q.schedule(1, [] {});
  q.pop();
  bool fired = false;
  q.schedule(2, [&] { fired = true; });
  q.cancel(first);  // fired id whose slot now hosts the new event
  ASSERT_EQ(q.size(), 1u);
  q.pop().cb();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, InterleavedStormKeepsSizeAndStatsExact) {
  // Deterministic schedule/cancel storm checked against a naive
  // reference model: size() and every KernelStats field must stay exact,
  // and events must pop in (time, schedule-order) order.
  EventQueue q;
  Random rng(2024);
  struct Pending {
    EventId id;
    SimTime at;
    std::uint64_t seq;
  };
  std::vector<Pending> pending;
  std::uint64_t next_seq = 0;
  std::uint64_t scheduled = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t fired = 0;
  std::uint64_t max_live = 0;
  SimTime now = 0;

  for (int round = 0; round < 5000; ++round) {
    const auto action = rng.uniform_int(0, 9);
    if (action < 5 || pending.empty()) {
      const SimTime at = now + rng.uniform_int(1, 1000);
      pending.push_back({q.schedule(at, [] {}), at, next_seq++});
      ++scheduled;
      max_live = std::max<std::uint64_t>(max_live, pending.size());
    } else if (action < 8) {
      const auto victim = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pending.size()) - 1));
      q.cancel(pending[victim].id);
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(victim));
      ++cancelled;
    } else if (!q.empty()) {
      const auto f = q.pop();
      ++fired;
      now = f.at;
      const auto expected = std::min_element(
          pending.begin(), pending.end(), [](const auto& a, const auto& b) {
            return a.at != b.at ? a.at < b.at : a.seq < b.seq;
          });
      ASSERT_NE(expected, pending.end());
      EXPECT_EQ(f.id, expected->id);
      EXPECT_EQ(f.at, expected->at);
      pending.erase(expected);
    }
    ASSERT_EQ(q.size(), pending.size());
    EXPECT_EQ(q.empty(), pending.empty());
  }

  EXPECT_EQ(q.stats().events_scheduled, scheduled);
  EXPECT_EQ(q.stats().events_cancelled, cancelled);
  EXPECT_EQ(q.stats().events_fired, fired);
  EXPECT_EQ(q.stats().peak_heap_size, max_live);
  EXPECT_EQ(scheduled, fired + cancelled + q.size());

  // Drain: the survivors still pop in exact reference order.
  while (!q.empty()) {
    const auto f = q.pop();
    const auto expected = std::min_element(
        pending.begin(), pending.end(), [](const auto& a, const auto& b) {
          return a.at != b.at ? a.at < b.at : a.seq < b.seq;
        });
    EXPECT_EQ(f.id, expected->id);
    pending.erase(expected);
  }
  EXPECT_TRUE(pending.empty());
  EXPECT_EQ(q.stats().events_scheduled,
            q.stats().events_fired + q.stats().events_cancelled);
}

// An EventQueue driven in lockstep with an ordered-set reference keyed
// (at, schedule order): every pop, next_time(), size() and counter is
// checked against it, whichever tier (calendar ring or heap) holds the
// event. The cancel victims are drawn from a swap-and-pop vector, so
// each step costs O(log n) even at churn depth.
class CheckedQueue {
 public:
  EventId schedule(SimTime at) {
    const EventId id = q_.schedule(at, [] {});
    order_.emplace(at, next_seq_, id);
    index_of_[id] = pending_.size();
    pending_.push_back({id, at, next_seq_++});
    max_live_ = std::max<std::uint64_t>(max_live_, pending_.size());
    return id;
  }

  /// Cancels the pending event `id`.
  void cancel(EventId id) {
    q_.cancel(id);
    ++cancelled_;
    forget(index_of_.at(id));
  }
  void cancel_nth(std::size_t i) { cancel(pending_[i].id); }

  void reserve(std::size_t more) { q_.reserve(more); }

  /// Cancels an id that is no longer pending; the queue must not move.
  void cancel_stale(EventId id) {
    ASSERT_EQ(index_of_.count(id), 0u);
    q_.cancel(id);
  }

  void pop_and_check() {
    ASSERT_FALSE(order_.empty());
    const auto f = q_.pop();
    const auto& [at, seq, id] = *order_.begin();
    ASSERT_EQ(f.id, id) << "at " << at << " seq " << seq;
    ASSERT_EQ(f.at, at);
    now_ = std::max(now_, f.at);
    ++fired_;
    forget(index_of_.at(f.id));
  }

  void check_state() const {
    ASSERT_EQ(q_.size(), pending_.size());
    ASSERT_EQ(q_.empty(), pending_.empty());
    if (!q_.empty()) {
      ASSERT_EQ(q_.next_time(), std::get<0>(*order_.begin()));
    }
    const KernelStats& stats = q_.stats();
    ASSERT_EQ(stats.events_scheduled, next_seq_);
    ASSERT_EQ(stats.events_cancelled, cancelled_);
    ASSERT_EQ(stats.events_fired, fired_);
    ASSERT_EQ(stats.peak_heap_size, max_live_);
  }

  void drain() {
    while (!q_.empty()) {
      ASSERT_NO_FATAL_FAILURE(pop_and_check());
      ASSERT_NO_FATAL_FAILURE(check_state());
    }
    ASSERT_TRUE(order_.empty());
  }

  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] std::size_t pending() const noexcept {
    return pending_.size();
  }
  [[nodiscard]] const std::vector<EventId>& dead() const noexcept {
    return dead_;
  }
  [[nodiscard]] std::uint64_t peak() const noexcept { return max_live_; }

 private:
  struct Pending {
    EventId id;
    SimTime at;
    std::uint64_t seq;
  };

  void forget(std::size_t i) {
    const Pending gone = pending_[i];
    order_.erase({gone.at, gone.seq, gone.id});
    index_of_.erase(gone.id);
    if (i + 1 != pending_.size()) {
      pending_[i] = pending_.back();
      index_of_[pending_[i].id] = i;
    }
    pending_.pop_back();
    dead_.push_back(gone.id);
  }

  EventQueue q_;
  std::set<std::tuple<SimTime, std::uint64_t, EventId>> order_;
  std::vector<Pending> pending_;
  std::unordered_map<EventId, std::size_t> index_of_;
  std::vector<EventId> dead_;  // fired or cancelled ids
  std::uint64_t next_seq_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t max_live_ = 0;
  SimTime now_ = 0;
};

TEST(EventQueue, DeepStormWithTiesKeepsSizeAndStatsExact) {
  // The storm above at the depth of a churn run: about 20 k pending
  // events (eight levels of the 4-ary heap), cancels at random heap
  // positions, stale cancels of recycled slots, and times drawn from a
  // coarse grid so most pops are decided by the FIFO tie-break.
  constexpr std::size_t kDepth = 20'000;
  constexpr int kRounds = 100'000;
  CheckedQueue q;
  Random rng(4242);
  // 200 distinct instants ahead of now: about 100 events share each.
  const auto schedule = [&] {
    q.schedule(q.now() + 100 * rng.uniform_int(0, 199));
  };
  while (q.pending() < kDepth) schedule();
  std::uint64_t stale_cancels = 0;
  for (int round = 0; round < kRounds; ++round) {
    const auto action = rng.uniform_int(0, 99);
    if (action < 33 || q.pending() == 0) {
      schedule();
    } else if (action < 63) {
      q.cancel_nth(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(q.pending()) - 1)));
    } else if (action < 96) {
      ASSERT_NO_FATAL_FAILURE(q.pop_and_check());
    } else if (!q.dead().empty()) {
      // A fired or cancelled id whose slot has likely been reused.
      q.cancel_stale(q.dead()[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(q.dead().size()) - 1))]);
      ++stale_cancels;
    }
    ASSERT_NO_FATAL_FAILURE(q.check_state());
  }
  EXPECT_GT(stale_cancels, 0u);
  EXPECT_GE(q.peak(), kDepth);
  ASSERT_NO_FATAL_FAILURE(q.drain());
}

TEST(EventQueue, NearFutureStormAcrossRingAndHeapMatchesReference) {
  // The deep storm's reference check with the traffic of a paper run:
  // deliveries due 0-150 us ahead (so they land on both sides of the
  // ring's 128 us edge), about 5 k far-future timers, events on the
  // instant a far timer is due, and, as on a bare queue, a few
  // schedules below the last pop. Pops advance the clock through
  // hundreds of multiples of 128 us, so the ring wraps constantly.
  constexpr int kRounds = 60'000;
  CheckedQueue q;
  Random rng(1128);
  while (q.pending() < 5'000) {
    q.schedule(1'000 + 1'000 * rng.uniform_int(0, 999));
  }
  std::uint64_t stale_cancels = 0;
  for (int round = 0; round < kRounds; ++round) {
    const auto action = rng.uniform_int(0, 99);
    if (action < 30) {
      q.schedule(q.now() + rng.uniform_int(0, 150));
    } else if (action < 33) {
      q.schedule(q.now() + 128 + rng.uniform_int(-2, 2));
    } else if (action < 38) {
      // Far enough for the heap, on a grid that later ring entries hit.
      q.schedule(q.now() + 200 + 8 * rng.uniform_int(0, 40));
    } else if (action < 40) {
      q.schedule(q.now() - rng.uniform_int(1, 300));  // below the floor
    } else if (action < 43) {
      q.schedule(q.now() + 1'000 * rng.uniform_int(1, 999));
    } else if (action < 60) {
      if (q.pending() == 0) continue;
      q.cancel_nth(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(q.pending()) - 1)));
    } else if (action < 97) {
      if (q.pending() == 0) continue;
      ASSERT_NO_FATAL_FAILURE(q.pop_and_check());
    } else if (!q.dead().empty()) {
      q.cancel_stale(q.dead()[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(q.dead().size()) - 1))]);
      ++stale_cancels;
    }
    ASSERT_NO_FATAL_FAILURE(q.check_state());
  }
  EXPECT_GT(stale_cancels, 1'000u);
  EXPECT_GT(q.now(), 500 * 128);
  ASSERT_NO_FATAL_FAILURE(q.drain());
}

TEST(EventQueue, ReserveMidStormKeepsIdsOrderAndStats) {
  // reserve() moves capacity only: after one in the middle of a storm
  // across both tiers, every pop, size() and counter still matches the
  // reference, and every id matches the same storm without the reserve.
  const auto storm = [](bool reserve, std::vector<EventId>& ids) {
    CheckedQueue q;
    Random rng(2006);
    for (int round = 0; round < 20'000; ++round) {
      if (reserve && round == 10'000) q.reserve(5'000);
      const auto action = rng.uniform_int(0, 99);
      if (action < 55 || q.pending() == 0) {
        ids.push_back(q.schedule(q.now() + rng.uniform_int(0, 2'000)));
      } else if (action < 70) {
        q.cancel_nth(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(q.pending()) - 1)));
      } else {
        ASSERT_NO_FATAL_FAILURE(q.pop_and_check());
      }
      ASSERT_NO_FATAL_FAILURE(q.check_state());
    }
    EXPECT_GT(q.peak(), 1'000u);
    ASSERT_NO_FATAL_FAILURE(q.drain());
  };
  std::vector<EventId> with_reserve;
  std::vector<EventId> without;
  ASSERT_NO_FATAL_FAILURE(storm(true, with_reserve));
  ASSERT_NO_FATAL_FAILURE(storm(false, without));
  EXPECT_EQ(with_reserve, without);
}

TEST(EventQueue, HeapEntryWinsSameInstantTieWithRingEntry) {
  // A timer due at 300 is scheduled while the floor is 0, so it goes to
  // the heap; once a pop at 250 moves the floor within 128 us of 300,
  // later events due at 300 go to the ring. Schedule order must still
  // decide: the heap entry first, then the ring entries in FIFO order.
  EventQueue q;
  std::vector<int> order;
  q.schedule(300, [&] { order.push_back(1); });  // heap
  q.schedule(250, [&] { order.push_back(0); });  // heap
  q.schedule(400, [&] { order.push_back(5); });  // heap
  q.pop().cb();                                   // floor -> 250
  q.schedule(300, [&] { order.push_back(2); });  // ring
  q.schedule(300, [&] { order.push_back(3); });  // ring
  q.schedule(301, [&] { order.push_back(4); });  // ring
  EXPECT_EQ(q.next_time(), 300);
  while (!q.empty()) q.pop().cb();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(EventQueue, RingWrapsAcrossMultiplesOf128) {
  // With the floor at 1000 (bucket 104), instants 1000-1127 occupy
  // buckets 104-127 and then 0-103: the scan must wrap in time order.
  CheckedQueue q;
  q.schedule(1000);
  ASSERT_NO_FATAL_FAILURE(q.pop_and_check());
  for (const SimTime at : {1127, 1024, 1023, 1000, 1088, 1064, 1063}) {
    q.schedule(at);
  }
  ASSERT_NO_FATAL_FAILURE(q.check_state());
  // Pop past the wrap, then refill buckets the earlier instants used.
  for (int i = 0; i < 4; ++i) ASSERT_NO_FATAL_FAILURE(q.pop_and_check());
  for (const SimTime at : {1151, 1152, 1100, 1063 + 128}) q.schedule(at);
  ASSERT_NO_FATAL_FAILURE(q.check_state());
  ASSERT_NO_FATAL_FAILURE(q.drain());
}

TEST(EventQueue, CancelRingEntryAtHeadMiddleAndTail) {
  // Five ring entries share one instant. Cancelling the head frees it
  // at once; the middle and tail stay linked as tombstones until the
  // head reaches them. The survivors still pop in schedule order.
  for (const std::vector<std::size_t>& victims :
       std::vector<std::vector<std::size_t>>{
           {0}, {2}, {4}, {0, 1}, {1, 2, 3}, {4, 3}, {0, 2, 4},
           {0, 1, 2, 3}, {0, 1, 2, 3, 4}}) {
    CheckedQueue q;
    std::vector<EventId> ids;
    for (int i = 0; i < 5; ++i) ids.push_back(q.schedule(60));
    q.schedule(61);
    for (const std::size_t v : victims) q.cancel(ids[v]);
    ASSERT_NO_FATAL_FAILURE(q.check_state());
    ASSERT_NO_FATAL_FAILURE(q.drain());
  }
}

TEST(EventQueue, StaleIdsOfTombstonedRingSlotsStayStale) {
  CheckedQueue q;
  const EventId head = q.schedule(40);
  const EventId middle = q.schedule(40);
  q.schedule(40);
  q.cancel(middle);  // tombstone: its slot is still linked
  q.cancel_stale(middle);
  ASSERT_NO_FATAL_FAILURE(q.check_state());
  ASSERT_NO_FATAL_FAILURE(q.pop_and_check());  // head; frees the tombstone
  q.cancel_stale(head);
  q.cancel_stale(middle);
  // New tenants reuse the freed slots, in the ring and in the heap; the
  // stale ids must not reach them.
  q.schedule(45);
  q.schedule(45);
  q.schedule(5'000);
  q.cancel_stale(middle);
  q.cancel_stale(head);
  ASSERT_NO_FATAL_FAILURE(q.check_state());
  ASSERT_NO_FATAL_FAILURE(q.drain());
}

TEST(EventQueue, SchedulesBelowTheFloorPopFirst) {
  // The Simulator never schedules in the past, but a bare queue may:
  // such events go to the heap and pop before the ring, in (at, seq)
  // order, and they do not pull the floor back.
  CheckedQueue q;
  q.schedule(1'000);
  ASSERT_NO_FATAL_FAILURE(q.pop_and_check());  // floor -> 1000
  q.schedule(1'050);  // ring
  q.schedule(500);    // below the floor
  q.schedule(990);
  q.schedule(500);
  q.schedule(1'000);  // the floor itself: ring
  ASSERT_NO_FATAL_FAILURE(q.check_state());
  ASSERT_NO_FATAL_FAILURE(q.pop_and_check());  // 500
  q.schedule(1'120);  // still within 128 us of the unmoved floor
  q.schedule(700);
  ASSERT_NO_FATAL_FAILURE(q.check_state());
  ASSERT_NO_FATAL_FAILURE(q.drain());
}

TEST(EventQueue, SizeAndPeakCountBothTiers) {
  CheckedQueue q;
  const EventId ring_a = q.schedule(10);
  q.schedule(10);
  q.schedule(20);
  q.schedule(1'000);  // heap
  const EventId heap_b = q.schedule(2'000);
  ASSERT_NO_FATAL_FAILURE(q.check_state());
  EXPECT_EQ(q.peak(), 5u);
  q.cancel(ring_a);  // a head: freed at once
  q.cancel(heap_b);
  ASSERT_NO_FATAL_FAILURE(q.check_state());
  q.schedule(30);
  q.schedule(3'000);
  ASSERT_NO_FATAL_FAILURE(q.check_state());
  EXPECT_EQ(q.peak(), 5u);
  ASSERT_NO_FATAL_FAILURE(q.drain());
}

TEST(EventQueue, LeaseChurnCallbacksDoNotAllocate) {
  // The tentpole claim: cancel/reschedule churn with timer-sized
  // captures must not touch the heap for callback storage.
  EventQueue q;
  struct Lease {
    int renews = 0;
  };
  std::array<Lease, 8> leases{};
  std::array<EventId, 8> timers{};
  for (std::size_t i = 0; i < leases.size(); ++i) {
    Lease* lease = &leases[i];
    timers[i] = q.schedule(static_cast<SimTime>(i), [lease] { ++lease->renews; });
  }
  for (int round = 0; round < 100; ++round) {
    for (std::size_t i = 0; i < leases.size(); ++i) {
      q.cancel(timers[i]);
      Lease* lease = &leases[i];
      const std::uint64_t deadline = 1000 + static_cast<std::uint64_t>(round);
      timers[i] = q.schedule(static_cast<SimTime>(deadline),
                             [lease, deadline, round] {
                               lease->renews += static_cast<int>(deadline) + round;
                             });
    }
  }
  EXPECT_EQ(q.stats().callback_heap_allocs, 0u);
  EXPECT_EQ(q.stats().events_scheduled, 8u + 8u * 100u);
  EXPECT_EQ(q.stats().events_cancelled, 8u * 100u);
}

// A callable that counts its moves: each is one relocation of its slot
// (it is copied in, so scheduling it moves nothing).
struct MoveCounter {
  int* moves;
  explicit MoveCounter(int* counter) : moves(counter) {}
  MoveCounter(const MoveCounter&) = default;
  MoveCounter(MoveCounter&& other) noexcept : moves(other.moves) {
    ++*moves;
  }
  void operator()() const {}
};

int relocations_over_a_batch(bool reserve) {
  EventQueue q;
  int moves = 0;
  const MoveCounter tracked(&moves);
  q.schedule(seconds(1), tracked);
  if (reserve) q.reserve(1'000);
  for (int i = 0; i < 1'000; ++i) q.schedule(seconds(2) + i, [] {});
  return moves;
}

TEST(EventQueue, ReserveGrowsTheSlabOnceForABatch) {
  // Grown once ahead of the batch, the slab relocates the live callback
  // once (1 -> 1,024 slots); grown by doubling, once per doubling.
  EXPECT_EQ(relocations_over_a_batch(true), 1);
  EXPECT_GE(relocations_over_a_batch(false), 9);
}

TEST(EventQueue, ReserveCountsFreeSlots) {
  EventQueue q;
  int moves = 0;
  const MoveCounter tracked(&moves);
  q.schedule(seconds(1), tracked);
  std::vector<EventId> ids;
  for (int i = 0; i < 15; ++i) {
    ids.push_back(q.schedule(seconds(2), [] {}));
  }
  for (std::size_t i = 0; i < 12; ++i) q.cancel(ids[i]);
  // 16 slots, 12 of them free: 20 more events need 8 fresh slots, so
  // the slab grows to bit_ceil(24) = 32 slots, not bit_ceil(36) = 64.
  moves = 0;
  q.reserve(20);
  EXPECT_EQ(moves, 1);
  for (int i = 0; i < 28; ++i) q.schedule(seconds(3), [] {});
  EXPECT_EQ(moves, 1);  // 32 slots in use, none relocated
  q.schedule(seconds(3), [] {});
  EXPECT_EQ(moves, 2);  // the 33rd slot doubles the slab
}

TEST(EventQueue, OversizedCallbackIsCountedAsHeapAlloc) {
  EventQueue q;
  std::array<std::uint64_t, 16> big{};
  big[3] = 9;
  std::uint64_t out = 0;
  q.schedule(1, [big, &out] { out = big[3]; });
  EXPECT_EQ(q.stats().callback_heap_allocs, 1u);
  q.pop().cb();
  EXPECT_EQ(out, 9u);
}

TEST(EventQueue, PeakHeapSizeTracksHighWaterMark) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(q.schedule(i, [] {}));
  for (int i = 0; i < 5; ++i) q.cancel(ids[static_cast<std::size_t>(i)]);
  q.schedule(100, [] {});
  EXPECT_EQ(q.stats().peak_heap_size, 10u);
  EXPECT_EQ(q.size(), 6u);
}

TEST(EventQueue, BindStatsSharesAnExternalBlock) {
  KernelStats shared;
  EventQueue q;
  q.bind_stats(&shared);
  const auto id = q.schedule(1, [] {});
  q.cancel(id);
  q.schedule(2, [] {});
  q.pop();
  EXPECT_EQ(shared.events_scheduled, 2u);
  EXPECT_EQ(shared.events_cancelled, 1u);
  EXPECT_EQ(shared.events_fired, 1u);
}

TEST(EventQueue, CancelDuringDenseSameTimeGroupKeepsFifo) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(q.schedule(50, [&order, i] { order.push_back(i); }));
  }
  for (int i = 1; i < 20; i += 2) q.cancel(ids[static_cast<std::size_t>(i)]);
  while (!q.empty()) q.pop().cb();
  std::vector<int> expected;
  for (int i = 0; i < 20; i += 2) expected.push_back(i);
  EXPECT_EQ(order, expected);
}

}  // namespace
}  // namespace sdcm::sim
