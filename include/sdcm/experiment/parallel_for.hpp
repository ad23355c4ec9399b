#pragma once

#include <cstddef>
#include <functional>

namespace sdcm::experiment {

/// Runs `body(i)` for every i in [0, n) on `threads` threads (0 = the
/// hardware concurrency; never more than n, the calling thread
/// included), each claiming the next index from one shared counter.
/// Simulation runs are fully independent, so this is the whole
/// scheduler a Monte Carlo sweep needs. A body that throws does not stop
/// the other indices: every index runs, and the first exception is
/// rethrown once all threads have joined.
void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace sdcm::experiment
