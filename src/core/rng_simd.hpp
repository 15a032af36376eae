// The coin-kernel tier name, kept for the benchmark driver's host record
// (perfbench/src/driver.cpp), its only consumer. The batched coin loops
// in core/rng.cpp are plain scalar code on every host, so the name is
// fixed.
#pragma once

namespace lowsense::simd {

inline const char* active_tier_name() noexcept { return "scalar"; }

}  // namespace lowsense::simd
