// Shared internals of the two simulation engines: packet storage, arrival
// injection, contention bookkeeping, and single-slot resolution. The
// engines differ ONLY in how they walk time (every active slot vs.
// jumping between events); accessor lookup is the per-shard AccessWheel,
// registered at every point a packet's next_access changes, which is what
// makes the engines trace-equivalent by construction.
//
// OPEN-SYSTEM STORAGE. Packets live in per-shard PacketStores (slab/SoA
// layout, see packet_store.hpp). Arrivals stream in from the pull-based
// ArrivalProcess as the run advances — nothing is materialized up front —
// and with config.reclaim (the default) a departed packet's slab returns
// to its shard's free list at the end of the slot it departed in, so
// resident memory is proportional to the live backlog even on unbounded
// arrival streams. Identity is the logical PacketId (injection sequence
// number, never reused): it keys the gap stream and the slot-keyed send
// coins, decides the owning shard (id % S), and defines the canonical
// order below, so reclamation cannot change any observable result.
//
// SHARDING. A run with config.shards = S splits the packet population
// over S PacketShards (packet id -> shard id % S) and resolves each slot
// in three phases:
//
//   1. send-draw   — parallel per shard: sort the shard's bucket by
//                    logical id, batch-evaluate the slot-keyed send
//                    coins, tally accesses.
//   2. arbitration — serial: merge senders in ascending-id order, consult
//                    the jammer, decide the outcome, depart the winner.
//   3. feedback    — parallel per shard: deliver the observation, redraw
//                    each accessor's gap, re-register it in the shard's
//                    wheel; then a serial shard-merge applies contention
//                    deltas and fires observers in ascending-id order.
//
// Determinism invariant: every cross-packet effect (the sender list, the
// floating-point contention accumulation, observer callbacks, the
// per-packet stats accumulation) happens in a CANONICAL order — ascending
// logical id within a slot, slot order across slots (departed packets
// fold their stats at departure; survivors are swept in ascending id at
// finish) — and every per-packet random draw comes either from the
// packet's own stream (gaps) or from a slot-keyed coin (sends), both
// keyed on the logical id. So the results of a run are a pure function
// of (scenario, seed), independent of the shard count, the engine, slab
// placement, and reclamation: --shards=S is bit-identical to --shards=1,
// and reclaim on is bit-identical to reclaim off.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "adversary/arrivals.hpp"
#include "adversary/jammer.hpp"
#include "core/executor.hpp"
#include "core/rng.hpp"
#include "core/types.hpp"
#include "protocols/protocol.hpp"
#include "sim/observer.hpp"
#include "sim/packet_shard.hpp"
#include "sim/run.hpp"

namespace lowsense::detail {

class SimCore {
 public:
  SimCore(const ProtocolFactory& factory, ArrivalProcess& arrivals, Jammer& jammer,
          const RunConfig& config);

  void add_observer(Observer* obs) { observers_.push_back(obs); }

  // --- arrival handling -------------------------------------------------
  /// Slot of the next pending arrival burst (kNoSlot when exhausted).
  Slot next_arrival_slot();
  /// Injects every pending burst with slot == t, registering each new
  /// packet's first access in its shard's wheel.
  void inject_arrivals_at(Slot t);

  // --- slot resolution --------------------------------------------------
  /// Resolves one ACTIVE slot: pops every shard's wheel bucket for t
  /// (advancing the cursors) and runs the three phases above. Increments
  /// active_slots. Engines call this with non-decreasing t.
  void resolve_slot(Slot t);

  /// Accounts a maximal access-free active span [lo, hi] (event engine).
  void account_quiet_span(Slot lo, Slot hi);

  // --- state ------------------------------------------------------------
  std::uint64_t n_active() const noexcept { return counters_.backlog; }
  const Counters& counters() const noexcept { return counters_; }
  SystemView view() const noexcept;
  bool arrivals_exhausted() const noexcept { return arrivals_done_ && !pending_; }

  /// Smallest slot with a scheduled access across all shards (kNoSlot
  /// when none). The engines' next-event query.
  Slot next_access_slot() const noexcept;

  /// True iff no active packet will ever access the channel again.
  bool no_future_access() const noexcept;

  /// Recomputes contention from the live records of every shard's store;
  /// tests compare it against the incrementally maintained value to bound
  /// floating-point drift.
  double recompute_contention() const;

  void finish(RunResult* result);

  /// Below this many accessors in a slot the phases run inline on the
  /// calling thread (in the same canonical order, so results do not
  /// change): a fork-join costs microseconds, which only pays off on the
  /// heavy buckets of the high-contention phase of a big run.
  static constexpr std::size_t kParallelMinAccessors = 128;

 private:
  /// The two parallel phases, as a tag so the fork path can submit a
  /// 16-byte (small-object-optimized) closure instead of heap-allocating
  /// a std::function per shard per fork — the resolve forks twice per
  /// heavy slot. Phase inputs (slot, feedback) travel in phase_slot_ /
  /// phase_fb_, written by the serial code before the fork.
  enum class Phase : std::uint32_t { kSendDraws, kFeedback };

  void depart(Slot t, std::size_t shard_idx, std::uint32_t slab);
  void resolve_phases(Slot t);
  void run_phase(Phase phase, PacketShard& shard);
  void phase_send_draws(Slot t, PacketShard& shard);
  void phase_feedback(Slot t, Feedback fb, PacketShard& shard);
  /// The live (in-system) records of every shard, in ascending logical id.
  std::vector<const Packet*> live_packets() const;
  /// Runs the phase over every shard: on the pool when the slot is heavy
  /// enough, inline (in shard order) otherwise — same code path, same
  /// canonical results either way.
  void run_sharded(std::size_t total_accessors, Phase phase);
  /// Visits accessor-aligned entries of all shards in canonical
  /// ascending-LOGICAL-id order (the one merge both serial phases use).
  /// `list_of(shard)` selects the per-shard sorted id list.
  template <typename GetList, typename Fn>
  void for_each_in_id_order(GetList&& list_of, Fn&& fn);

  const ProtocolFactory& factory_;
  ArrivalProcess& arrivals_;
  Jammer& jammer_;
  RunConfig config_;

  std::vector<PacketShard> shards_;
  std::optional<ParallelExecutor> pool_;  ///< persistent; shards > 1 only
  PacketId next_id_ = 0;                  ///< logical ids handed out so far
  std::vector<PacketId> scratch_sender_pids_;
  std::vector<std::uint32_t> scratch_sender_slabs_;  ///< aligned with pids
  std::vector<std::size_t> scratch_pos_;  ///< per-shard merge cursors
  std::optional<ArrivalBurst> pending_;
  bool arrivals_done_ = false;
  /// The slot winner's slab, released (if config_.reclaim) only after
  /// phase 3 and the observers are done with the record.
  std::optional<std::pair<std::size_t, std::uint32_t>> reclaim_pending_;

  Slot phase_slot_ = 0;                    ///< inputs of the forked phases,
  Feedback phase_fb_ = Feedback::kEmpty;   ///< set serially before each fork

  Counters counters_;
  std::vector<Observer*> observers_;

  // Result accumulation. Departed packets fold their per-packet stats at
  // departure (canonical: one departure per slot, slot order); survivors
  // are swept in ascending id order at finish().
  std::uint64_t max_accesses_ = 0;
  std::uint64_t peak_backlog_ = 0;
  double max_window_ = 0.0;
  StreamingStats access_stats_;
  StreamingStats send_stats_;
  StreamingStats latency_stats_;
  LogHistogram access_hist_{2.0};
};

}  // namespace lowsense::detail
