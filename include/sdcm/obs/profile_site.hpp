#pragma once

#include <cstdint>

#include "sdcm/obs/profiler.hpp"
#include "sdcm/sim/atom.hpp"
#include "sdcm/sim/simulator.hpp"

/// Attribution-site labels for the wall-clock profiler.
///
/// Sites share sim::Atom's interned table with message types and trace
/// tags: a network delivery attributes its message-type atom directly,
/// while timer callbacks and experiment phases intern
/// "timer.<module>.<what>" / "phase.<what>" labels into the same id
/// space. Interning happens once per call site (function-local static),
/// so steady-state cost is one inline store into the run's Profiler -
/// and in default builds (SDCM_PROFILE=OFF) the macros expand to
/// nothing. The kernel itself only ever sees raw site ids.

#if SDCM_PROFILE_ENABLED

/// Marks the enclosing event callback as belonging to `name` (a string
/// literal). `sim` is a sim::Simulator (or reference to one).
#define SDCM_PROFILE_SITE(sim, name)                            \
  do {                                                          \
    static const std::uint32_t sdcm_profile_site_id_ =          \
        ::sdcm::obs::profile_site_id(name);                     \
    (sim).profile_attribute(sdcm_profile_site_id_);             \
  } while (0)

/// Labels a sim::PeriodicTimer's ticks: every on_tick dispatched by
/// `timer` is attributed to `name`.
#define SDCM_PROFILE_TIMER(timer, name)                         \
  do {                                                          \
    static const std::uint32_t sdcm_profile_site_id_ =          \
        ::sdcm::obs::profile_site_id(name);                     \
    (timer).set_profile_site(sdcm_profile_site_id_);            \
  } while (0)

#else

#define SDCM_PROFILE_SITE(sim, name) \
  do {                               \
  } while (0)
#define SDCM_PROFILE_TIMER(timer, name) \
  do {                                  \
  } while (0)

#endif

namespace sdcm::obs {

/// Interns a phase/site label at runtime (available in every build;
/// phase timers are not compile-gated). Returns the site id to pass to
/// Profiler::phase_record / PhaseScope.
inline std::uint32_t profile_site_id(const char* name) {
  return sim::Atom::intern(name).id();
}

}  // namespace sdcm::obs
