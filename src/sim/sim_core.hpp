// The simulation core: packet storage, arrival injection, contention
// bookkeeping, single-slot resolution, and the one run loop that drives
// them. Accessor lookup is the AccessWheel, registered at every point a
// packet's next_access changes.
//
// TWO WALKS, ONE LOOP. A packet's state changes only when it accesses the
// channel (§1.1; see the Protocol contract), so its per-slot access
// probability is constant between accesses and "which slot do I access
// next?" is one geometric draw. SimCore::run therefore has exactly one
// decision about time, selected by EngineKind:
//
//   event walk (EventEngine, the default) — jump from the current slot to
//     min(next arrival, next scheduled access) and account the
//     access-free active span in between arithmetically (active slots
//     and jams; randomized jammers replay slot-keyed coins). A run costs
//     O(accesses), the paper's energy unit.
//   slot walk (SlotEngine, the reference) — resolve every active slot
//     one by one, consulting the jammer on literally every slot: the
//     model of §1.1 transparently, in O(active slots + accesses).
//
// Both walks skip inactive stretches (backlog 0) to the next arrival for
// free, share the budget checks (RunConfig::max_slot, max_active_slots)
// and the exit of a backlog that can never access again, and pop the
// same wheel in the same canonical order — so they cannot disagree on
// WHO accesses a slot, only on how they walk time between accesses, and
// their traces are bit-identical on every jammer family (see
// tests/sim_equivalence_test.cpp).
//
// OPEN-SYSTEM STORAGE. Packets live in one PacketStore (slab/SoA layout,
// see packet_store.hpp). Arrivals stream in from the pull-based
// ArrivalProcess as the run advances — nothing is materialized up front —
// and with config.reclaim (the default) a departed packet's slab returns
// to the free list at the end of the slot it departed in, so resident
// memory is proportional to the live backlog even on unbounded arrival
// streams. Identity is the logical PacketId (injection sequence number,
// never reused): it keys the gap stream and the slot-keyed send coins
// and defines the canonical order below, so reclamation cannot change
// any observable result.
//
// ONE SLOT. A run is serial — the channel of §1.1 is one sequence of
// slots; replicate-level --threads= is the parallel layer — and
// resolve_slot handles one slot in three phases:
//
//   1. send-draw   — sort the wheel bucket by logical id, evaluate the
//                    slot-keyed send coins in one batch, tally accesses.
//   2. arbitration — consult the jammer with the ascending-id sender
//                    list, decide the outcome, depart the winner.
//   3. feedback    — in ascending id: deliver the observation, redraw the
//                    gap, re-register the packet in the wheel, apply its
//                    contention delta and fire on_window_change.
//
// Determinism invariant: every cross-packet effect (the sender list, the
// floating-point contention accumulation, observer callbacks, the
// per-packet stats accumulation) happens in a CANONICAL order — ascending
// logical id within a slot, slot order across slots (departed packets
// fold their stats at departure; survivors are swept in ascending id at
// finish) — and every per-packet random draw comes either from the
// packet's own stream (gaps) or from a slot-keyed coin (sends), both
// keyed on the logical id. So the results of a run are a pure function
// of (scenario, seed), independent of the engine, slab placement, and
// reclamation: reclaim on is bit-identical to reclaim off.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "adversary/arrivals.hpp"
#include "adversary/jammer.hpp"
#include "core/rng.hpp"
#include "core/types.hpp"
#include "protocols/protocol.hpp"
#include "sim/access_wheel.hpp"
#include "sim/observer.hpp"
#include "sim/packet_store.hpp"
#include "sim/run.hpp"

namespace lowsense::detail {

class SimCore {
 public:
  SimCore(const ProtocolFactory& factory, ArrivalProcess& arrivals, Jammer& jammer,
          const RunConfig& config);

  void add_observer(Observer* obs) { observers_.push_back(obs); }

  /// Runs to drain or budget under the given walk; returns the summary.
  /// Call once per SimCore.
  RunResult run(EngineKind walk);

  // --- arrival handling -------------------------------------------------
  /// Slot of the next pending arrival burst (kNoSlot when exhausted).
  Slot next_arrival_slot();
  /// Injects every pending burst with slot == t, registering each new
  /// packet's first access in the wheel.
  void inject_arrivals_at(Slot t);

  // --- slot resolution --------------------------------------------------
  /// Resolves one ACTIVE slot: pops the wheel bucket for t (advancing the
  /// cursor) and runs the three phases above. Increments active_slots.
  /// run() calls this with non-decreasing t.
  void resolve_slot(Slot t);

  /// Accounts a maximal access-free active span [lo, hi] (event walk).
  void account_quiet_span(Slot lo, Slot hi);

  // --- state ------------------------------------------------------------
  std::uint64_t n_active() const noexcept { return counters_.backlog; }
  const Counters& counters() const noexcept { return counters_; }
  SystemView view() const noexcept;
  bool arrivals_exhausted() const noexcept { return arrivals_done_ && !pending_; }

  /// Smallest slot with a scheduled access (kNoSlot when none). The event
  /// walk's next-event query.
  Slot next_access_slot() const noexcept { return wheel_.next_scheduled(); }

  /// True iff no active packet will ever access the channel again.
  bool no_future_access() const noexcept { return wheel_.empty(); }

  /// Recomputes contention from the store's live records; tests compare
  /// it against the incrementally maintained value to bound
  /// floating-point drift.
  double recompute_contention() const;

  void finish(RunResult* result);

  /// The accessor count from which perfbench's traced profile calls a
  /// slot "heavy". Nothing in src/ reads it; it stays until the
  /// benchmark drops its heavy/light split.
  static constexpr std::size_t kParallelMinAccessors = 128;

 private:
  /// True once slot t lies past config.max_slot or the active-slot
  /// budget is spent.
  bool over_budget(Slot t) const noexcept;

  void depart(Slot t, std::uint32_t slab);
  /// Phase 1: canonicalizes accessors_ and draws the send coins; returns
  /// the slab of the lowest-id sender (unspecified when nobody sent).
  std::uint32_t phase_send_draws(Slot t);
  void phase_feedback(Slot t, Feedback fb);
  /// The live (in-system) records, in ascending logical id.
  std::vector<const Packet*> live_packets() const;

  const ProtocolFactory& factory_;
  ArrivalProcess& arrivals_;
  Jammer& jammer_;
  RunConfig config_;

  PacketStore store_;
  AccessWheel wheel_;
  PacketId next_id_ = 0;  ///< logical ids handed out so far
  std::optional<ArrivalBurst> pending_;
  bool arrivals_done_ = false;

  // Per-slot scratch of resolve_slot, reused across slots.
  std::vector<std::uint32_t> accessors_;  ///< slab handles, sorted by logical id
  std::vector<std::pair<PacketId, std::uint32_t>> sort_tmp_;  ///< canonicalize scratch
  std::vector<PacketId> sender_ids_;      ///< transmitting subset, ascending id
  std::vector<std::uint64_t> coin_keys_;  ///< batched send-draw inputs
  std::vector<double> coin_ps_;
  std::vector<std::uint8_t> coin_out_;

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

namespace lowsense {

/// A SimCore bound to one walk: EventEngine and SlotEngine
/// (event_engine.hpp, slot_engine.hpp) are its two instances.
template <EngineKind Walk>
class Engine {
 public:
  Engine(const ProtocolFactory& factory, ArrivalProcess& arrivals, Jammer& jammer,
         const RunConfig& config)
      : core_(factory, arrivals, jammer, config) {}

  void add_observer(Observer* obs) { core_.add_observer(obs); }

  /// Runs to drain or budget; returns the summary.
  RunResult run() { return core_.run(Walk); }

  const detail::SimCore& core() const noexcept { return core_; }

 private:
  detail::SimCore core_;
};

}  // namespace lowsense
