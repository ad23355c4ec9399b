#include "sdcm/experiment/parallel_for.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace sdcm::experiment {
namespace {

/// The distinct threads that ran `n` bodies on `threads` threads.
std::size_t threads_used(std::size_t threads, std::size_t n) {
  std::mutex mutex;
  std::set<std::thread::id> ids;
  parallel_for(threads, n, [&](std::size_t) {
    const std::scoped_lock lock(mutex);
    ids.insert(std::this_thread::get_id());
  });
  return ids.size();
}

TEST(ParallelFor, CoversDisjointIndices) {
  std::vector<int> hits(1000, 0);
  parallel_for(4, hits.size(), [&](std::size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 1000);
  for (const int h : hits) EXPECT_EQ(h, 1);
  // Never more threads than indices.
  EXPECT_LE(threads_used(8, 2), 2u);
}

TEST(ParallelFor, SingleThreadRunsIndicesInOrderOnTheCaller) {
  std::vector<std::size_t> order;
  std::set<std::thread::id> ids;
  parallel_for(1, 5, [&](std::size_t i) {
    order.push_back(i);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(ids, std::set<std::thread::id>{std::this_thread::get_id()});
}

TEST(ParallelFor, ZeroThreadsMeansHardwareConcurrency) {
  std::atomic<int> ran{0};
  parallel_for(0, 100, [&ran](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 100);
  const std::size_t used = threads_used(0, 100);
  EXPECT_GE(used, 1u);
  EXPECT_LE(used, std::max(1u, std::thread::hardware_concurrency()));
}

TEST(ParallelFor, EmptyRangeNeverCallsTheBody) {
  for (const std::size_t threads : std::vector<std::size_t>{0, 1, 4}) {
    bool called = false;
    parallel_for(threads, 0, [&called](std::size_t) { called = true; });
    EXPECT_FALSE(called) << threads << " threads";
  }
}

TEST(ParallelFor, RethrowsAfterEveryOtherIndexRan) {
  std::atomic<int> ran{0};
  EXPECT_THROW(parallel_for(4, 100,
                            [&ran](std::size_t i) {
                              if (i == 13) {
                                throw std::runtime_error("body boom");
                              }
                              ran.fetch_add(1);
                            }),
               std::runtime_error);
  // Remaining iterations still ran; only index 13 is missing.
  EXPECT_EQ(ran.load(), 99);
}

TEST(ParallelFor, ConcurrentCallsDoNotBlockEachOther) {
  std::atomic<int> first{0};
  std::atomic<int> second{0};
  std::thread other([&] {
    parallel_for(4, 200, [&second](std::size_t) { second.fetch_add(1); });
  });
  parallel_for(4, 200, [&first](std::size_t) { first.fetch_add(1); });
  other.join();
  EXPECT_EQ(first.load(), 200);
  EXPECT_EQ(second.load(), 200);
}

}  // namespace
}  // namespace sdcm::experiment
