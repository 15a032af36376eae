// TSan-focused race lanes (ctest label "race"): hammer every piece of
// concurrent machinery the library owns — ParallelExecutor submit /
// wait / shutdown / exception paths and the pool-reusing
// replicate_parallel / parallel_map fan-out. A single run is serial, so
// the replicate pool is the only place threads meet simulation state.
// Every lane also asserts the determinism contract on whatever it
// computes, so the suite is a (small) functional test in unsanitized
// builds and a race detector under `cmake --preset tsan && ctest --preset
// tsan`.
//
// Sizing: each lane finishes in a few seconds at TSan's 5-15x slowdown
// (the per-test TIMEOUT is scaled by LOWSENSE_TEST_TIMEOUT_MULT on
// sanitized builds, but these lanes should not need it).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "adversary/arrivals.hpp"
#include "adversary/jammer.hpp"
#include "core/executor.hpp"
#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "protocols/registry.hpp"

namespace lowsense {
namespace {

// ------------------------------------------------- executor: shutdown

// Destroying the pool with queued-but-unstarted work must neither leak
// the closures (LSan) nor race the workers (TSan). The destructor's
// contract is drain-then-join: every submitted task runs.
TEST(ExecutorShutdown, QueuedUnstartedWorkIsDrainedWithoutLeaks) {
  std::atomic<int> executed{0};
  {
    ParallelExecutor pool(4);
    for (int i = 0; i < 256; ++i) {
      // Owning capture: if shutdown dropped queued tasks on the floor
      // (or double-ran them), the shared_ptr accounting — and LSan —
      // would catch it.
      auto payload = std::make_shared<std::vector<int>>(64, i);
      pool.submit([payload, &executed] {
        executed.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // No wait(): the destructor itself is the code under test.
  }
  EXPECT_EQ(executed.load(), 256);
}

TEST(ExecutorShutdown, ImmediateDestructionOfIdlePool) {
  for (int i = 0; i < 16; ++i) {
    ParallelExecutor pool(3);  // construct + join with no work at all
  }
}

// An exception still in flight (stored in first_error_, never rethrown
// because the owner skips wait()) must be cleanly destroyed with the
// pool: no leak of the exception object, no race on the slot it lives in.
TEST(ExecutorShutdown, InFlightExceptionAtDestructionDoesNotLeak) {
  std::atomic<int> executed{0};
  {
    ParallelExecutor pool(4);
    for (int i = 0; i < 64; ++i) {
      pool.submit([i, &executed] {
        executed.fetch_add(1, std::memory_order_relaxed);
        if (i % 7 == 3) {
          throw std::runtime_error("in-flight failure " + std::to_string(i));
        }
      });
    }
    // Destructor runs with several stored/raced exceptions pending.
  }
  EXPECT_EQ(executed.load(), 64);
}

// ------------------------------------------------ executor: exceptions

TEST(ExecutorRace, FirstExceptionWinsAndPoolStaysUsable) {
  ParallelExecutor pool(4);
  std::atomic<int> executed{0};
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 64; ++i) {
      pool.submit([i, &executed] {
        executed.fetch_add(1, std::memory_order_relaxed);
        if (i % 9 == 1) throw std::runtime_error("boom");
      });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error) << "round " << round;
    // The error slot must be cleared: a clean batch follows on the SAME
    // pool and must not rethrow the previous round's exception.
    for (int i = 0; i < 32; ++i) {
      pool.submit([&executed] { executed.fetch_add(1, std::memory_order_relaxed); });
    }
    EXPECT_NO_THROW(pool.wait()) << "round " << round;
  }
  EXPECT_EQ(executed.load(), 8 * (64 + 32));
}

TEST(ExecutorRace, WaitSubmitWaitCycles) {
  ParallelExecutor pool(4);
  std::atomic<std::uint64_t> sum{0};
  // Many tiny fork-joins: every wait() must see the batch it follows
  // complete, and the next submit must wake a sleeping worker.
  for (int round = 0; round < 2000; ++round) {
    for (int s = 0; s < 4; ++s) {
      pool.submit([&sum, s] { sum.fetch_add(s + 1, std::memory_order_relaxed); });
    }
    pool.wait();
  }
  EXPECT_EQ(sum.load(), 2000u * (1 + 2 + 3 + 4));
}

// ------------------------------------- replicate_parallel pool reuse

TEST(RaceStress, PoolReusingReplicateParallelMatchesSerial) {
  Scenario scenario;
  scenario.name = "race-stress";
  scenario.protocol = [] { return make_protocol("low-sensing"); };
  scenario.arrivals = [](std::uint64_t) { return std::make_unique<BatchArrivals>(64); };
  scenario.jammer = [](std::uint64_t seed) {
    return std::make_unique<RandomJammer>(0.15, 300, CounterRng(seed, 0xb1));
  };
  scenario.config.max_active_slots = 8000;

  const Replicates serial = replicate(scenario, 8, 1);
  ParallelExecutor pool(4);
  // Two rounds on the SAME pool: the suite runner keeps one pool alive
  // across a bench's whole sweep, so reuse is the production pattern.
  for (int round = 0; round < 2; ++round) {
    const Replicates parallel = replicate_parallel(scenario, 8, &pool, 1);
    ASSERT_EQ(serial.runs.size(), parallel.runs.size());
    for (std::size_t i = 0; i < serial.runs.size(); ++i) {
      EXPECT_EQ(serial.runs[i].counters.successes, parallel.runs[i].counters.successes);
      EXPECT_EQ(serial.runs[i].counters.active_slots, parallel.runs[i].counters.active_slots);
      EXPECT_EQ(serial.runs[i].counters.contention, parallel.runs[i].counters.contention);
    }
  }
}

// Heavy slots on many workers: a 1024-packet batch puts hundreds of
// accessors in every early bucket, on both walks, with eight replicates
// in flight at once. Each run's scratch, store and wheel are its own, so
// the threaded replicates must match the serial ones exactly.
TEST(RaceStress, HeavyBatchReplicatesOnBothWalks) {
  for (const EngineKind walk : {EngineKind::kEvent, EngineKind::kSlot}) {
    Scenario scenario;
    scenario.name = "heavy-batch";
    scenario.engine = walk;
    scenario.protocol = [] { return make_protocol("low-sensing"); };
    scenario.arrivals = [](std::uint64_t) { return std::make_unique<BatchArrivals>(1024); };
    scenario.jammer = [](std::uint64_t seed) {
      return std::make_unique<RandomJammer>(0.2, 400, CounterRng(seed, 0xb1));
    };
    scenario.config.max_active_slots = 5000;  // the heavy early slots are the point

    const Replicates serial = replicate(scenario, 8, 17);
    ParallelExecutor pool(8);
    const Replicates parallel = replicate_parallel(scenario, 8, &pool, 17);
    ASSERT_EQ(serial.runs.size(), parallel.runs.size());
    for (std::size_t i = 0; i < serial.runs.size(); ++i) {
      SCOPED_TRACE(std::string(engine_name(walk)) + "/rep " + std::to_string(i));
      EXPECT_EQ(serial.runs[i].counters.successes, parallel.runs[i].counters.successes);
      EXPECT_EQ(serial.runs[i].counters.active_slots, parallel.runs[i].counters.active_slots);
      EXPECT_EQ(serial.runs[i].counters.contention, parallel.runs[i].counters.contention);
      EXPECT_EQ(serial.runs[i].access_stats.sum(), parallel.runs[i].access_stats.sum());
      EXPECT_EQ(serial.runs[i].latency_stats.sum(), parallel.runs[i].latency_stats.sum());
    }
  }
}

// Open-system lane: unbounded Poisson arrivals with slab reclamation on,
// one replicate per worker — arrivals keep acquiring recycled slabs while
// sibling runs do the same on other threads.
TEST(RaceStress, StreamingArrivalsWithReclaimOnReplicateWorkers) {
  Scenario scenario;
  scenario.name = "streaming-reclaim";
  scenario.protocol = [] { return make_protocol("low-sensing"); };
  scenario.arrivals = [](std::uint64_t seed) {
    return std::make_unique<PoissonArrivals>(0.35, /*horizon=*/0, Rng(seed));  // unbounded
  };
  scenario.jammer = [](std::uint64_t) { return std::make_unique<NoJammer>(); };
  scenario.config.max_slot = 30000;  // the budget, not the stream, ends the run
  scenario.config.reclaim = true;

  const Replicates serial = replicate(scenario, 4, 7);
  ParallelExecutor pool(4);
  const Replicates parallel = replicate_parallel(scenario, 4, &pool, 7);
  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  for (std::size_t i = 0; i < serial.runs.size(); ++i) {
    EXPECT_GT(serial.runs[i].slabs_recycled, 0u);
    EXPECT_EQ(serial.runs[i].counters.arrivals, parallel.runs[i].counters.arrivals);
    EXPECT_EQ(serial.runs[i].counters.successes, parallel.runs[i].counters.successes);
    EXPECT_EQ(serial.runs[i].counters.contention, parallel.runs[i].counters.contention);
    EXPECT_EQ(serial.runs[i].peak_backlog, parallel.runs[i].peak_backlog);
    EXPECT_EQ(serial.runs[i].slab_capacity, parallel.runs[i].slab_capacity);
  }
}

TEST(RaceStress, ParallelMapOrderedResultsUnderChurn) {
  ParallelExecutor pool(4);
  for (int round = 0; round < 50; ++round) {
    const auto out = parallel_map(&pool, 64, [round](std::size_t i) {
      return static_cast<int>(i) * 3 + round;
    });
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i], static_cast<int>(i) * 3 + round) << "round " << round;
    }
  }
}

}  // namespace
}  // namespace lowsense
