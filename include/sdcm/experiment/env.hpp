#pragma once

#include <cstddef>

namespace sdcm::experiment::env {

/// The runtime knobs every bench and tool reads, parsed in exactly one
/// place (reports emit, they don't parse environments):
///
///   SDCM_RUNS         runs per (model, lambda) point
///   SDCM_BENCH_SMOKE  nonzero: tiny CI-sized workloads
///   SDCM_THREADS      worker threads (0 = hardware concurrency)
///
/// Every parser falls back on unset, malformed, or out-of-range input -
/// a bad environment must never crash a campaign.

/// Generic: integer variable `name`, or `fallback` when unset, not an
/// integer, or below `min`.
int int_or(const char* name, int fallback, int min = 1);

/// SDCM_RUNS (positive; default the paper's 30 logs per point).
int runs(int fallback = 30);

/// SDCM_BENCH_SMOKE: set, nonempty and not "0".
bool bench_smoke();

/// SDCM_THREADS (non-negative; 0 = hardware concurrency).
std::size_t threads(std::size_t fallback = 0);

}  // namespace sdcm::experiment::env
