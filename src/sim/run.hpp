// Run configuration, walk selection and result summary of a simulation run.
#pragma once

#include <cstdint>

#include "core/histogram.hpp"
#include "core/stats.hpp"
#include "core/types.hpp"
#include "sim/types.hpp"

namespace lowsense {

/// How SimCore::run walks time between accesses (see sim_core.hpp).
enum class EngineKind {
  kEvent,  ///< skip access-free spans arithmetically (default; O(accesses))
  kSlot,   ///< resolve every active slot one by one (the reference walk)
};

struct RunConfig {
  /// Stop after this many ACTIVE slots (0 = unlimited). Implicit-throughput
  /// experiments bound runs this way since inactive slots are free.
  std::uint64_t max_active_slots = 0;

  /// Stop after absolute slot index (0 = unlimited).
  Slot max_slot = 0;

  /// Master seed; packet i draws its gap stream from Rng::stream(seed, i)
  /// and its slot-keyed send coins from CounterRng(seed, 2^32 + i).
  std::uint64_t seed = 1;

  /// Inert: nothing in src/ reads it, and a run is always serial
  /// (replicate-level --threads= is the parallel layer). It stays only
  /// because the perfbench driver still sets it for its 2-shard rerun.
  unsigned shards = 1;

  /// Open-system storage: recycle a departed packet's slab so resident
  /// memory tracks the LIVE backlog instead of the arrival horizon.
  /// Every observable quantity is keyed on logical packet ids (which are
  /// never reused), so results are bit-identical for either value on any
  /// finite scenario — bench_t14 enforces that as a hard check. `false`
  /// keeps the closed-population layout (slabs are never reused; memory
  /// grows with total arrivals), retained for that cross-check and for
  /// post-run inspection of departed packets.
  bool reclaim = true;
};

struct RunResult {
  Counters counters;             ///< final cumulative counters
  bool drained = false;          ///< all arrived packets departed & stream exhausted
  std::uint64_t max_accesses = 0;         ///< worst per-packet channel accesses
  std::uint64_t peak_backlog = 0;         ///< max packets simultaneously in system
  double max_window_seen = 0.0;           ///< w_max over the whole run
  std::uint64_t jams_total = 0;           ///< jammer's own count (incl. inactive slots)
  std::uint64_t slab_capacity = 0;        ///< packet slabs ever allocated: ≈ peak live
                                          ///< backlog with reclaim, total arrivals
                                          ///< without — the memory-model witness
  std::uint64_t slabs_recycled = 0;       ///< slab acquisitions served from the free list
  StreamingStats access_stats;   ///< per-packet accesses (all packets, incl. survivors)
  StreamingStats send_stats;     ///< per-packet transmissions
  StreamingStats latency_stats;  ///< departure - arrival (departed packets only)
  LogHistogram access_hist{2.0};

  /// Overall throughput (T_t + J_t)/S_t — equals N/S on drained unjammed runs.
  double throughput() const noexcept { return counters.throughput(); }
  double implicit_throughput() const noexcept { return counters.implicit_throughput(); }
  double mean_accesses() const noexcept { return access_stats.mean(); }
};

}  // namespace lowsense
