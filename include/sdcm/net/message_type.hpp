#pragma once

#include "sdcm/sim/atom.hpp"

namespace sdcm::net {

/// A message's type: an interned atom. The hot path used to carry a
/// `std::string type` in every Message - one heap string per envelope,
/// copied once per wire copy and once more per multicast delivery; as an
/// atom it is a 4-byte handle, and every send, deliver, counter bump and
/// comparison is integer work. Message types share sim::Atom's id space
/// with trace tags and profiler sites (DESIGN.md section 13.1).
using MessageType = sim::Atom;

}  // namespace sdcm::net
