// Behavioural tests of both engines against hand-checkable scenarios:
// single packets, tiny batches, jamming, budgets, and drain conditions.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>

#include "adversary/arrivals.hpp"
#include "adversary/jammer.hpp"
#include "protocols/fixed_probability.hpp"
#include "protocols/low_sensing.hpp"
#include "protocols/mw_full_sensing.hpp"
#include "sim/sim_core.hpp"

namespace lowsense {

// Readable parameter dumps and test names ("/slot", "# GetParam() = slot").
void PrintTo(EngineKind walk, std::ostream* os) {
  *os << (walk == EngineKind::kSlot ? "slot" : "event");
}

namespace {

RunConfig config_with_seed(std::uint64_t seed) {
  RunConfig c;
  c.seed = seed;
  return c;
}

RunResult run_walk(EngineKind walk, const ProtocolFactory& factory, ArrivalProcess& arrivals,
                   Jammer& jammer, const RunConfig& cfg) {
  detail::SimCore core(factory, arrivals, jammer, cfg);
  return core.run(walk);
}

RunResult run_batch(EngineKind walk, std::uint64_t n, std::uint64_t seed, RunConfig cfg = {}) {
  LowSensingFactory factory;
  BatchArrivals arrivals(n);
  NoJammer none;
  cfg.seed = seed;
  return run_walk(walk, factory, arrivals, none, cfg);
}

// Every behaviour here is walk-independent, so each runs on both walks
// of SimCore::run.
class BothEngines : public ::testing::TestWithParam<EngineKind> {};

INSTANTIATE_TEST_SUITE_P(Walks, BothEngines,
                         ::testing::Values(EngineKind::kEvent, EngineKind::kSlot),
                         [](const ::testing::TestParamInfo<EngineKind>& info) {
                           return ::testing::PrintToString(info.param);
                         });

// ------------------------------------------------------- single packet

TEST_P(BothEngines, SinglePacketSucceedsImmediatelyFirstSend) {
  // Alone on the channel, the first transmission must succeed.
  const RunResult r = run_batch(GetParam(), 1, 3);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.counters.successes, 1u);
  EXPECT_EQ(r.counters.arrivals, 1u);
  EXPECT_EQ(r.send_stats.max(), 1.0);  // exactly one send, the winner
  EXPECT_EQ(r.counters.backlog, 0u);
}

TEST_P(BothEngines, SinglePacketLatencyMatchesGeometricScale) {
  // Access prob at w_min=16 with c=0.5 is ~0.66 and send|access ~0.094,
  // so expected time-to-success is a few dozen slots; across seeds the
  // average should be modest.
  double total = 0.0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    const RunResult r = run_batch(GetParam(), 1, seed);
    total += r.latency_stats.mean();
  }
  EXPECT_LT(total / 50.0, 100.0);
  EXPECT_GT(total / 50.0, 1.0);
}

// ----------------------------------------------------------- batch runs

TEST_P(BothEngines, BatchDrainsAndConservesPackets) {
  const RunResult r = run_batch(GetParam(), 200, 11);
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.counters.arrivals, 200u);
  EXPECT_EQ(r.counters.successes, 200u);
  EXPECT_EQ(r.counters.backlog, 0u);
  EXPECT_EQ(r.peak_backlog, 200u);
  EXPECT_EQ(r.access_stats.count(), 200u);
}

TEST_P(BothEngines, ActiveSlotsAtLeastN) {
  // Each success occupies one slot, so S >= N always.
  const RunResult r = run_batch(GetParam(), 300, 12);
  EXPECT_GE(r.counters.active_slots, 300u);
}

TEST_P(BothEngines, EverySuccessIsOneSend) {
  // Total sends >= total successes; each packet sends at least once.
  const RunResult r = run_batch(GetParam(), 100, 13);
  EXPECT_GE(r.send_stats.sum(), 100.0);
  EXPECT_GE(r.send_stats.min(), 1.0);
}

TEST_P(BothEngines, DeterministicAcrossReruns) {
  const RunResult a = run_batch(GetParam(), 128, 77);
  const RunResult b = run_batch(GetParam(), 128, 77);
  EXPECT_EQ(a.counters.active_slots, b.counters.active_slots);
  EXPECT_EQ(a.counters.successes, b.counters.successes);
  EXPECT_EQ(a.max_accesses, b.max_accesses);
  EXPECT_DOUBLE_EQ(a.access_stats.mean(), b.access_stats.mean());
}

TEST_P(BothEngines, DifferentSeedsDiffer) {
  const RunResult a = run_batch(GetParam(), 128, 1);
  const RunResult b = run_batch(GetParam(), 128, 2);
  EXPECT_NE(a.counters.active_slots, b.counters.active_slots);
}

// --------------------------------------------------------------- budgets

TEST_P(BothEngines, MaxActiveSlotBudgetStopsRun) {
  RunConfig cfg;
  cfg.max_active_slots = 50;
  const RunResult r = run_batch(GetParam(), 1000, 5, cfg);
  EXPECT_FALSE(r.drained);
  EXPECT_LE(r.counters.active_slots, 50u);
  EXPECT_GT(r.counters.backlog, 0u);
}

TEST_P(BothEngines, MaxSlotBudgetStopsRun) {
  RunConfig cfg;
  cfg.max_slot = 100;
  const RunResult r = run_batch(GetParam(), 1000, 5, cfg);
  EXPECT_FALSE(r.drained);
  EXPECT_LE(r.counters.slot, 100u);
}

// -------------------------------------------------------------- arrivals

TEST_P(BothEngines, InactiveGapsAreNotCounted) {
  // Two lone packets far apart: the dead time between them must not count
  // as active slots.
  LowSensingFactory factory;
  ScheduleArrivals arrivals({{0, 1}, {1000000, 1}});
  NoJammer none;
  const RunResult r = run_walk(GetParam(), factory, arrivals, none, config_with_seed(9));
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.counters.successes, 2u);
  EXPECT_LT(r.counters.active_slots, 10000u);
}

TEST_P(BothEngines, PoissonStreamDrains) {
  LowSensingFactory factory;
  PoissonArrivals arrivals(0.05, 500, Rng(21));
  NoJammer none;
  const RunResult r = run_walk(GetParam(), factory, arrivals, none, config_with_seed(21));
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.counters.successes, 500u);
}

// --------------------------------------------------------------- jamming

TEST_P(BothEngines, FullJammingPreventsAllProgress) {
  LowSensingFactory factory;
  BatchArrivals arrivals(10);
  RandomJammer jammer(1.0, 0, CounterRng(1));
  RunConfig cfg = config_with_seed(4);
  cfg.max_active_slots = 2000;
  const RunResult r = run_walk(GetParam(), factory, arrivals, jammer, cfg);
  EXPECT_EQ(r.counters.successes, 0u);
  EXPECT_EQ(r.counters.backlog, 10u);
  // Every active slot was jammed.
  EXPECT_EQ(r.counters.jammed_active_slots, r.counters.active_slots);
}

TEST_P(BothEngines, JammedThroughputCreditsJams) {
  // With (T+J)/S, a fully jammed run still has throughput 1.
  LowSensingFactory factory;
  BatchArrivals arrivals(10);
  RandomJammer jammer(1.0, 0, CounterRng(1));
  RunConfig cfg = config_with_seed(4);
  cfg.max_active_slots = 500;
  const RunResult r = run_walk(GetParam(), factory, arrivals, jammer, cfg);
  EXPECT_DOUBLE_EQ(r.throughput(), 1.0);
}

TEST_P(BothEngines, ScheduledJamsAreCounted) {
  LowSensingFactory factory;
  BatchArrivals arrivals(5);
  ScheduleJammer jammer({0, 1, 2});
  const RunResult r = run_walk(GetParam(), factory, arrivals, jammer, config_with_seed(6));
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.counters.jammed_active_slots, 3u);
}

TEST_P(BothEngines, ReactiveBlanketWithBudgetDelaysButNotForever) {
  LowSensingFactory factory;
  BatchArrivals arrivals(20);
  ReactiveBlanketJammer jammer(50);
  const RunResult r = run_walk(GetParam(), factory, arrivals, jammer, config_with_seed(8));
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.counters.successes, 20u);
  EXPECT_EQ(r.jams_total, 50u);  // the jammer spends its whole budget
}

// ---------------------------------------------------- protocol coverage

TEST_P(BothEngines, MwFullSensingBatchDrains) {
  MwFullSensingFactory factory;
  BatchArrivals arrivals(100);
  NoJammer none;
  const RunResult r = run_walk(GetParam(), factory, arrivals, none, config_with_seed(14));
  EXPECT_TRUE(r.drained);
  // Full sensing: every packet accesses every slot it is alive, so the
  // max equals that packet's latency.
  EXPECT_DOUBLE_EQ(r.access_stats.max(), r.latency_stats.max());
}

TEST_P(BothEngines, FixedProbabilityGenieDrains) {
  FixedProbabilityFactory factory(1.0 / 64.0);
  BatchArrivals arrivals(64);
  NoJammer none;
  const RunResult r = run_walk(GetParam(), factory, arrivals, none, config_with_seed(15));
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(r.counters.successes, 64u);
}

TEST_P(BothEngines, ZeroAccessProbabilityTerminates) {
  // A protocol that never accesses must not hang the engine: a backlog
  // with no scheduled access and no arrival to come stops the run right
  // after its arrival slot, long before the max_slot budget.
  FixedProbabilityFactory factory(0.0);
  BatchArrivals arrivals(3);
  NoJammer none;
  RunConfig cfg = config_with_seed(16);
  cfg.max_slot = 10000;
  const RunResult r = run_walk(GetParam(), factory, arrivals, none, cfg);
  EXPECT_FALSE(r.drained);
  EXPECT_EQ(r.counters.successes, 0u);
  EXPECT_EQ(r.counters.active_slots, 1u);
}

// ------------------------------------------------------ observer order

TEST_P(BothEngines, SlotCallbacksRunDepartureThenWindowChangesInIdOrder) {
  // Within one resolved slot the observers see, in this order: at most one
  // on_departure (the winner), then on_window_change in ascending id for
  // the survivors, then on_slot. Potential trackers and traces rely on it.
  struct OrderLog final : Observer {
    Slot open = kNoSlot;  // slot whose callbacks are in flight
    bool departed = false;
    PacketId winner = 0;
    PacketId last_change = 0;
    bool changed = false;
    std::uint64_t departures = 0;
    std::uint64_t changes = 0;
    std::uint64_t violations = 0;

    void enter(Slot slot) {
      if (slot == open) return;
      open = slot;
      departed = false;
      changed = false;
    }
    void on_departure(Slot slot, PacketId id, Slot, std::uint64_t, std::uint64_t,
                      double) override {
      enter(slot);
      violations += departed || changed;  // one winner, before any window change
      departed = true;
      winner = id;
      ++departures;
    }
    void on_window_change(Slot slot, PacketId id, double, double) override {
      enter(slot);
      violations += changed && id <= last_change;
      violations += departed && id == winner;  // the winner gets no feedback
      changed = true;
      last_change = id;
      ++changes;
    }
    void on_slot(const SlotInfo& info, const Counters&) override {
      if (open != kNoSlot) violations += info.slot != open;  // no spill into the next slot
      violations += departed != info.success;
      open = kNoSlot;
      departed = false;
      changed = false;
    }
  };

  LowSensingFactory factory;
  BatchArrivals arrivals(256);
  RandomJammer jammer(0.1, 0, CounterRng(3));
  RunConfig cfg = config_with_seed(31);
  detail::SimCore core(factory, arrivals, jammer, cfg);
  OrderLog log;
  core.add_observer(&log);
  const RunResult r = core.run(GetParam());
  EXPECT_TRUE(r.drained);
  EXPECT_EQ(log.departures, 256u);
  EXPECT_GT(log.changes, log.departures);
  EXPECT_EQ(log.violations, 0u);
}

}  // namespace
}  // namespace lowsense
