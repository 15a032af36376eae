// Out-of-tree layer profile for lowsense.
//
// The traced run wraps the library's extension points in forwarding
// decorators (ProtocolFactory/Protocol, ArrivalProcess, Jammer, and the
// TraceDigest Observer) and drives detail::SimCore through a loop that
// reproduces EventEngine::run / SlotEngine::run call for call, timing
// every SimCore call it makes. Nothing inside src/ is instrumented: each
// layer is timed from outside, through its public functions.
//
// Spans. The loop's SimCore calls are the top-level spans (one clock
// read per call, chained, so loop glue between two calls lands in the
// following span). Calls the library makes into a decorated layer are
// child spans, tagged with the top-level span that was open when they
// ran. A span's self time is its duration minus its children's.
//
// Sampling. Every child call is COUNTED; only a fixed subsample by call
// index is TIMED (every kStride-th call of its kind, per thread), since
// two clock reads around a 5 ns protocol query would distort the run.
// The timer measures itself: once per resolved slot it times an empty
// region, in the same place and way as the real calls. That "timer"
// cost is subtracted from every sampled duration, twice per timed child
// from its parent's span (the two clock reads), and once per lap from
// the top-level spans. A kind's total time is estimated as calls x mean
// net sampled duration. The traced run reports its remaining overhead
// against an untraced run of the same jobs.
//
// Threads. Sharded runs call protocol decorators from pool workers, so
// counters live in per-thread blocks owned by a process-wide registry
// and summed after the run, once the SimCore (and its pool) is gone.
// Self time of a top-level span subtracts only the children timed on
// the driver thread: on a sharded run it therefore includes fork/join
// and waiting for the other shards.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "harness/experiment.hpp"
#include "metrics/trace.hpp"
#include "sim/run.hpp"

namespace perfbench {

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Top-level spans: the SimCore calls the driver loop makes.
enum Span : std::uint8_t {
  kSpanArrivals,  ///< next_arrival_slot
  kSpanWheel,     ///< next_access_slot (the next-event query)
  kSpanQuiet,     ///< account_quiet_span
  kSpanInject,    ///< inject_arrivals_at
  kSpanResolve,   ///< resolve_slot
  kSpanFinish,    ///< finish
  kSpanCount,
};
/// Parent tag for calls made outside every top-level span.
inline constexpr std::size_t kSpanOutside = kSpanCount;

/// Child calls: the library calling into a decorated layer.
enum Call : std::uint8_t {
  kCallCreate,       ///< ProtocolFactory::create
  kCallQuery,        ///< Protocol access_prob / send_prob_given_access / window / name
  kCallUpdate,       ///< Protocol::on_observation
  kCallGap,          ///< Protocol::draw_gap
  kCallArrivals,     ///< ArrivalProcess::next
  kCallJam,          ///< Jammer::jam
  kCallQuietRange,   ///< Jammer::count_quiet_range
  kCallJammerOther,  ///< Jammer::jams_used / name
  kCallDigest,       ///< any Observer callback into the TraceDigest
  kCallEmpty,        ///< an empty timed region: the timer's own cost
  kCallCount,
};

/// Counters of one thread. Only that thread writes its block.
struct ThreadStats {
  bool driver = false;
  std::array<std::array<std::uint64_t, kCallCount>, kSpanCount + 1> calls{};
  std::array<std::uint64_t, kCallCount> tick{};
  std::array<std::uint64_t, kCallCount> sampled{};
  std::array<std::int64_t, kCallCount> sampled_ns{};
  std::array<std::uint64_t, kSpanCount + 1> sampled_in{};  ///< timed calls per parent span
};

/// Child-call totals over every thread, with time estimated from samples.
struct CallTotals {
  std::array<std::array<std::uint64_t, kCallCount>, kSpanCount + 1> calls{};  ///< all threads
  std::array<std::array<std::uint64_t, kCallCount>, kSpanCount + 1> driver_calls{};
  std::array<std::uint64_t, kCallCount> sampled{};
  std::array<std::int64_t, kCallCount> sampled_ns{};  ///< raw, timer cost included
  std::array<std::uint64_t, kSpanCount + 1> driver_sampled_in{};

  void add(const CallTotals& o);
  std::uint64_t count(Call c) const noexcept;
  /// Cost of one timed region with nothing in it (0 when none was sampled).
  double timer_ns() const noexcept;
  /// Mean sampled duration of one call of kind c, timer cost included
  /// (0 when none was sampled).
  double raw_ns(Call c) const noexcept;
  /// Mean net duration of one call of kind c: raw_ns less the timer cost,
  /// not clamped, so noise can make it negative (0 when none was sampled).
  double mean_ns(Call c) const noexcept;
  /// False when the net duration is below the timer's own cost: such a
  /// call is too cheap for the timer to resolve.
  bool resolved(Call c) const noexcept;
  /// Estimated time of the driver thread's child calls under span s,
  /// including the two clock reads each timed one added to the span.
  double driver_children_ns(std::size_t s) const noexcept;
};

/// Zeroes every thread block (call between runs, with no pool alive) and
/// marks the calling thread as the driver.
void reset_call_stats();
/// Sums every thread block (call after the run's SimCore is destroyed).
CallTotals collect_call_stats();

/// What the driver loop measured itself.
struct LoopProfile {
  std::array<std::int64_t, kSpanCount> span_ns{};
  std::array<std::uint64_t, kSpanCount> span_calls{};
  std::int64_t construct_ns = 0;  ///< factories, decorators, SimCore (incl. shard pool)
  std::int64_t wall_ns = 0;       ///< the whole traced run, construction included
  std::uint64_t slots = 0;        ///< resolve_slot calls
  std::uint64_t accesses = 0;     ///< Σ accessors over resolved slots
  std::uint64_t bucket_max = 0;   ///< most accessors in one slot
  std::uint64_t heavy_slots = 0;     ///< slots with >= kParallelMinAccessors accessors
  std::uint64_t heavy_accesses = 0;  ///< accessors in those slots
  std::int64_t heavy_ns = 0;         ///< resolve_slot time of those slots
  std::int64_t light_ns = 0;         ///< resolve_slot time of the other slots
  std::uint64_t quiet_spans = 0;
  std::uint64_t quiet_slots = 0;
  std::uint64_t queries = 0;      ///< next-event (wheel) queries
  std::uint64_t injected = 0;     ///< packets injected
  std::uint64_t bursts = 0;       ///< non-empty ArrivalProcess::next results
  std::uint64_t jams = 0;         ///< jammer's jams_used at the end

  void add(const LoopProfile& o);
};

struct TracedRun {
  lowsense::RunResult result;
  std::string digest;  ///< TraceDigest hex of the run
  LoopProfile loop;
};

/// Runs `scenario` at `seed` like lowsense::run_scenario with a
/// TraceDigest attached, but through the decorators and the timed loop.
/// Call reset_call_stats() before and collect_call_stats() after.
TracedRun run_traced(const lowsense::Scenario& scenario, std::uint64_t seed);

}  // namespace perfbench
