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

TEST(EventQueue, DeepStormWithTiesKeepsSizeAndStatsExact) {
  // The storm above at the depth of a churn run: about 20 k pending
  // events (eight levels of the 4-ary heap), cancels at random heap
  // positions, stale cancels of recycled slots, and times drawn from a
  // coarse grid so most pops are decided by the FIFO tie-break. The
  // reference is an ordered set keyed (at, seq); the cancel victims are
  // drawn from a swap-and-pop vector, so each round costs O(log n).
  constexpr std::size_t kDepth = 20'000;
  constexpr int kRounds = 100'000;
  EventQueue q;
  Random rng(4242);
  std::set<std::tuple<SimTime, std::uint64_t, EventId>> order;
  struct Pending {
    EventId id;
    SimTime at;
    std::uint64_t seq;
  };
  std::vector<Pending> pending;
  std::unordered_map<EventId, std::size_t> index_of;
  std::vector<EventId> dead;  // fired or cancelled ids
  std::uint64_t next_seq = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t fired = 0;
  std::uint64_t max_live = 0;
  SimTime now = 0;

  const auto schedule = [&] {
    // 200 distinct instants ahead of now: about 100 events share each.
    const SimTime at = now + 100 * rng.uniform_int(0, 199);
    const EventId id = q.schedule(at, [] {});
    order.emplace(at, next_seq, id);
    index_of[id] = pending.size();
    pending.push_back({id, at, next_seq++});
    max_live = std::max<std::uint64_t>(max_live, pending.size());
  };
  const auto forget = [&](std::size_t i) {
    const Pending gone = pending[i];
    order.erase({gone.at, gone.seq, gone.id});
    index_of.erase(gone.id);
    if (i + 1 != pending.size()) {
      pending[i] = pending.back();
      index_of[pending[i].id] = i;
    }
    pending.pop_back();
    dead.push_back(gone.id);
  };
  const auto pop_and_check = [&] {
    const auto f = q.pop();
    const auto& [at, seq, id] = *order.begin();
    ASSERT_EQ(f.id, id) << "at " << at << " seq " << seq;
    ASSERT_EQ(f.at, at);
    now = f.at;
    ++fired;
    forget(index_of.at(f.id));
  };

  while (pending.size() < kDepth) schedule();
  std::uint64_t stale_cancels = 0;
  for (int round = 0; round < kRounds; ++round) {
    const auto action = rng.uniform_int(0, 99);
    if (action < 33 || pending.empty()) {
      schedule();
    } else if (action < 63) {
      const auto victim = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(pending.size()) - 1));
      q.cancel(pending[victim].id);
      ++cancelled;
      forget(victim);
    } else if (action < 96) {
      ASSERT_NO_FATAL_FAILURE(pop_and_check());
    } else if (!dead.empty()) {
      // A fired or cancelled id whose slot has likely been reused.
      q.cancel(dead[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(dead.size()) - 1))]);
      ++stale_cancels;
    }
    ASSERT_EQ(q.size(), pending.size());
    if (!q.empty()) {
      ASSERT_EQ(q.next_time(), std::get<0>(*order.begin()));
    }
  }
  EXPECT_GT(stale_cancels, 0u);
  EXPECT_GE(max_live, kDepth);

  const KernelStats& stats = q.stats();
  EXPECT_EQ(stats.events_scheduled, next_seq);
  EXPECT_EQ(stats.events_cancelled, cancelled);  // stale cancels count 0
  EXPECT_EQ(stats.events_fired, fired);
  EXPECT_EQ(stats.peak_heap_size, max_live);

  // Drain: the survivors still pop in exact reference order.
  while (!q.empty()) ASSERT_NO_FATAL_FAILURE(pop_and_check());
  EXPECT_TRUE(order.empty());
  EXPECT_EQ(stats.events_scheduled, stats.events_fired + stats.events_cancelled);
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
