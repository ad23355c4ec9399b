#include "sdcm/experiment/env.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

namespace sdcm::experiment::env {
namespace {

// The env knobs are process-global; each test restores what it sets.

TEST(Env, RunsParsesAndFallsBack) {
  unsetenv("SDCM_RUNS");
  EXPECT_EQ(runs(30), 30);
  setenv("SDCM_RUNS", "12", 1);
  EXPECT_EQ(runs(30), 12);
  setenv("SDCM_RUNS", "garbage", 1);
  EXPECT_EQ(runs(30), 30);
  setenv("SDCM_RUNS", "-3", 1);
  EXPECT_EQ(runs(30), 30);
  setenv("SDCM_RUNS", "0", 1);
  EXPECT_EQ(runs(30), 30);  // runs must stay positive
  setenv("SDCM_RUNS", "12trailing", 1);
  EXPECT_EQ(runs(30), 30);  // whole-string parse only
  unsetenv("SDCM_RUNS");
}

TEST(Env, BenchSmokeIsSetNonEmptyNonZero) {
  unsetenv("SDCM_BENCH_SMOKE");
  EXPECT_FALSE(bench_smoke());
  setenv("SDCM_BENCH_SMOKE", "", 1);
  EXPECT_FALSE(bench_smoke());
  setenv("SDCM_BENCH_SMOKE", "0", 1);
  EXPECT_FALSE(bench_smoke());
  setenv("SDCM_BENCH_SMOKE", "1", 1);
  EXPECT_TRUE(bench_smoke());
  setenv("SDCM_BENCH_SMOKE", "yes", 1);
  EXPECT_TRUE(bench_smoke());
  unsetenv("SDCM_BENCH_SMOKE");
}

TEST(Env, ThreadsAllowsZeroMeaningHardware) {
  unsetenv("SDCM_THREADS");
  EXPECT_EQ(threads(), 0u);
  EXPECT_EQ(threads(8), 8u);
  setenv("SDCM_THREADS", "4", 1);
  EXPECT_EQ(threads(), 4u);
  setenv("SDCM_THREADS", "0", 1);
  EXPECT_EQ(threads(8), 0u);  // explicit 0 = hardware concurrency
  unsetenv("SDCM_THREADS");
}

TEST(Env, IntOrRespectsTheFloor) {
  setenv("SDCM_TEST_KNOB", "5", 1);
  EXPECT_EQ(int_or("SDCM_TEST_KNOB", 1), 5);
  EXPECT_EQ(int_or("SDCM_TEST_KNOB", 1, 10), 1);  // below floor -> fallback
  unsetenv("SDCM_TEST_KNOB");
  EXPECT_EQ(int_or("SDCM_TEST_KNOB", 7), 7);
}

}  // namespace
}  // namespace sdcm::experiment::env
