#pragma once

/// Always 0: the metrics-registry build this macro once reported is gone,
/// and every fact that registry counted has an always-on home (DESIGN.md
/// §8.2). The header stays only because benchmark/sdcm_bench.cpp includes
/// it for its build guard; delete it together with that include.
#define SDCM_OBS_ENABLED 0
