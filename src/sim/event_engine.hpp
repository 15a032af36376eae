// The event walk: jumps between accesses in O(accesses). The loop and its
// documentation live in SimCore::run (sim_core.hpp).
#pragma once

#include "sim/sim_core.hpp"

namespace lowsense {

using EventEngine = Engine<EngineKind::kEvent>;

}  // namespace lowsense
