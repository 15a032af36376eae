// The slot walk: resolves every active slot, the reference the event walk
// is tested against. The loop and its documentation live in
// SimCore::run (sim_core.hpp).
#pragma once

#include "sim/sim_core.hpp"

namespace lowsense {

using SlotEngine = Engine<EngineKind::kSlot>;

}  // namespace lowsense
