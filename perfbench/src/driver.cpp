// perfbench_driver: runs one workload of the lowsense benchmark and
// prints one JSON line with what it measured and what it checked.
//
//   perfbench_driver --workload=NAME --seed=N --packs=DIR
//                    --mode=setup|measure|trace [--seconds=S]
//
// setup    builds the workload and its first engine, then stops: the
//          time from main() to a ready engine (pack parsing, scenario
//          and factory construction, the SIMD dispatch probe, SimCore
//          construction including the shard pool).
// measure  untraced reps of the workload's jobs, all at --seed, until
//          --seconds are spent; then the cross-configuration check.
// trace    pairs of (untraced, traced) reps; the traced one runs through
//          the layer probes (layers.hpp) and must reproduce the
//          untraced digest and result bit for bit. batch-drain adds a
//          pair at 2 shards to each rep: the fork/join profile.
//
// Every job result is checked: against the first rep (a run is a pure
// function of scenario and seed), against the other engine or shard
// count, and against the packs' own pins. The exit code is 1 when any
// check failed, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <ctime>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/rng_simd.hpp"
#include "harness/json_writer.hpp"
#include "layers.hpp"
#include "sim/event_engine.hpp"
#include "sim/slot_engine.hpp"
#include "sim/sim_core.hpp"
#include "workloads.hpp"

namespace {

using lowsense::JsonWriter;
using lowsense::RunResult;
using perfbench::Job;
using perfbench::now_ns;
using perfbench::Workload;

/// Peak resident set of this process so far, in KiB.
std::uint64_t peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

std::int64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/// Pass/fail bookkeeping: one attempt per job run.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  /// Counts one run; `problem` empty means it passed.
  void run(const std::string& label, const std::string& problem) {
    ++attempted;
    if (problem.empty()) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(label + ": " + problem);
  }
};

struct JobOutcome {
  RunResult run;
  std::string digest;  ///< "" when the run carried no digest
};

/// The untraced run of a job as its users run it: run_pack_entry for
/// pack entries (digest, steady-state windows, expectations), plain
/// run_scenario otherwise. Returns the pack verdict in *problem.
JobOutcome run_untraced(const Workload& w, const Job& job, std::string* problem) {
  JobOutcome out;
  if (!job.entry) {
    out.run = lowsense::run_scenario(job.scenario, job.seed);
    return out;
  }
  const lowsense::PackEntry& entry = w.entries[*job.entry];
  const lowsense::EngineKind engine = job.scenario.engine;
  const lowsense::PackEntryOutcome o = lowsense::run_pack_entry(
      entry, [engine](lowsense::Scenario s, std::uint64_t seed,
                      const std::vector<lowsense::Observer*>& obs) {
        s.engine = engine;
        return lowsense::run_scenario(s, seed, obs);
      });
  out.run = o.run;
  out.digest = o.digest;
  if (!o.digest_ok) *problem = "digest " + o.digest + " != pinned " + o.expected_digest;
  for (const auto& [text, pass] : o.expect_results) {
    if (!pass && problem->empty()) *problem = "expectation failed: " + text;
  }
  return out;
}

/// Untraced run with a TraceDigest attached: the trace mode's reference.
JobOutcome run_digested(const Job& job) {
  lowsense::TraceDigest digest;
  JobOutcome out;
  out.run = lowsense::run_scenario(job.scenario, job.seed, {&digest});
  out.digest = digest.hex();
  return out;
}

/// Builds the workload's first engine the way run_scenario does and
/// returns the time it stood ready to run (before its teardown).
std::int64_t build_first_engine(const Job& job) {
  auto factory = job.scenario.protocol();
  auto arrivals = job.scenario.arrivals(job.seed);
  std::unique_ptr<lowsense::Jammer> jammer = job.scenario.jammer
                                                 ? job.scenario.jammer(job.seed)
                                                 : std::make_unique<lowsense::NoJammer>();
  lowsense::RunConfig config = job.scenario.config;
  config.seed = job.seed;
  if (job.scenario.engine == lowsense::EngineKind::kSlot) {
    lowsense::SlotEngine engine(*factory, *arrivals, *jammer, config);
    return now_ns();
  }
  lowsense::EventEngine engine(*factory, *arrivals, *jammer, config);
  return now_ns();
}

void write_totals(JsonWriter& w, const std::vector<JobOutcome>& outs) {
  std::uint64_t arrivals = 0, successes = 0, active = 0, jammed = 0, accesses = 0;
  for (const JobOutcome& o : outs) {
    arrivals += o.run.counters.arrivals;
    successes += o.run.counters.successes;
    active += o.run.counters.active_slots;
    jammed += o.run.counters.jammed_active_slots;
    accesses += perfbench::accesses_of(o.run);
  }
  w.key("result").begin_object();
  w.member("arrivals", arrivals);
  w.member("successes", successes);
  w.member("active_slots", active);
  w.member("jammed_active_slots", jammed);
  w.member("accesses", accesses);
  w.end_object();
}

void write_checks(JsonWriter& w, const Checks& c) {
  w.member("attempted", c.attempted);
  w.member("failed", c.failed);
  w.key("failures").begin_array();
  for (const std::string& f : c.failures) w.value(f);
  w.end_array();
}

/// Keeps doing reps while the next one, and `reserve` more runs of its
/// length after it, still end inside the budget (estimated by the last
/// rep); always does at least one.
class Budget {
 public:
  explicit Budget(double seconds) : end_(now_ns() + static_cast<std::int64_t>(seconds * 1e9)) {}
  bool another(std::int64_t last_rep_ns, int reserve = 0) const {
    return last_rep_ns < 0 || now_ns() + last_rep_ns * (1 + reserve) <= end_;
  }

 private:
  std::int64_t end_;
};

// ------------------------------------------------------------- measure

int measure(const Workload& w, double seconds, std::int64_t setup_ns) {
  Checks checks;
  std::vector<JobOutcome> first;
  JsonWriter j;
  j.begin_object();
  j.member("mode", "measure");
  j.member("setup_ns", static_cast<double>(setup_ns));
  j.key("reps").begin_array();
  // The closing cross-check reruns the workload once (batch-drain at 2
  // shards) or twice (jammed-stream on both engines, digested); it counts
  // against the budget, so a run ends within --seconds.
  const bool batch = w.name == "batch-drain";
  const int cross_check_runs = batch ? 1 : w.name == "jammed-stream" ? 2 : 0;
  const Budget budget(seconds);
  for (std::int64_t last = -1; budget.another(last, cross_check_runs);) {
    const std::int64_t wall0 = now_ns();
    const std::int64_t cpu0 = cpu_ns();
    std::vector<JobOutcome> outs;
    std::vector<std::string> problems;
    std::uint64_t accesses = 0;
    for (const Job& job : w.jobs) {
      std::string problem;
      outs.push_back(run_untraced(w, job, &problem));
      problems.push_back(problem);
      accesses += perfbench::accesses_of(outs.back().run);
    }
    last = now_ns() - wall0;
    const std::int64_t cpu = cpu_ns() - cpu0;
    j.begin_object();
    j.member("wall_ns", static_cast<double>(last));
    j.member("cpu_ns", static_cast<double>(cpu));
    j.member("accesses", accesses);
    j.member("peak_rss_kib", peak_rss_kib());
    j.end_object();

    for (std::size_t i = 0; i < outs.size(); ++i) {
      const Job& job = w.jobs[i];
      std::string& problem = problems[i];
      if (problem.empty() && !first.empty()) {
        const std::string diff = perfbench::first_difference(outs[i].run, first[i].run);
        if (!diff.empty()) problem = "differs from the first rep in " + diff;
        if (problem.empty() && outs[i].digest != first[i].digest) {
          problem = "digest differs from the first rep";
        }
      }
      // The two engines of one pack entry fold the same digest.
      if (problem.empty() && job.entry && job.scenario.engine == lowsense::EngineKind::kSlot &&
          outs[i].digest != outs[i - 1].digest) {
        problem = "slot-engine digest " + outs[i].digest + " != event-engine " + outs[i - 1].digest;
      }
      if (problem.empty() && job.scenario.config.max_active_slots == 0 && !job.entry &&
          !outs[i].run.drained) {
        problem = "batch did not drain";
      }
      checks.run(job.label, problem);
    }
    if (first.empty()) first = std::move(outs);
  }
  j.end_array();

  // Cross-configuration identity, untimed, at the same seed.
  if (batch) {
    Job other = w.jobs.front();
    other.scenario.config.shards = 2;
    const RunResult r = lowsense::run_scenario(other.scenario, other.seed);
    const std::string diff = perfbench::first_difference(r, first.front().run);
    checks.run(other.label + "@shards=" + std::to_string(other.scenario.config.shards),
               diff.empty() ? "" : "not bit-identical across shard counts: " + diff);
  } else if (w.name == "jammed-stream") {
    Job slot = w.jobs.front();
    slot.scenario.engine = lowsense::EngineKind::kSlot;
    const JobOutcome s = run_digested(slot);
    const JobOutcome e = run_digested(w.jobs.front());
    std::string problem;
    if (s.digest != e.digest) problem = "slot-engine digest " + s.digest + " != event " + e.digest;
    const std::string diff = perfbench::first_difference(e.run, first.front().run);
    if (problem.empty() && !diff.empty()) problem = "digested run differs in " + diff;
    checks.run(w.name + "@slot", problem);
  }

  write_totals(j, first);
  j.key("digests").begin_object();
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (!first[i].digest.empty()) j.member(w.jobs[i].label, first[i].digest);
  }
  j.end_object();
  write_checks(j, checks);
  j.end_object();
  std::cout << j.str() << "\n";
  return checks.failed == 0 ? 0 : 1;
}

// --------------------------------------------------------------- trace

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t h = xs.size() / 2;
  return xs.size() % 2 == 1 ? xs[h] : 0.5 * (xs[h - 1] + xs[h]);
}

/// batch-drain's job at 2 shards, untraced and traced, checked against
/// the 1-shard run `ref`: the one place the sharded resolve's fork/join
/// is measured. Adds the traced loop to *loop and returns the untraced
/// 2-shard wall time.
std::int64_t shard_pass(const Job& one_shard, const JobOutcome& ref, Checks* checks,
                        perfbench::LoopProfile* loop) {
  Job job = one_shard;
  job.scenario.config.shards = 2;
  const std::int64_t t0 = now_ns();
  const JobOutcome plain = run_digested(job);
  const std::int64_t plain_ns = now_ns() - t0;
  perfbench::reset_call_stats();
  const perfbench::TracedRun traced = perfbench::run_traced(job.scenario, job.seed);
  std::string problem;
  if (plain.digest != ref.digest) {
    problem = "2-shard digest " + plain.digest + " != 1-shard " + ref.digest;
  } else if (traced.digest != ref.digest) {
    problem = "traced 2-shard digest " + traced.digest + " != 1-shard " + ref.digest;
  } else if (const std::string d = perfbench::first_difference(plain.run, ref.run); !d.empty()) {
    problem = "not bit-identical across shard counts: " + d;
  } else if (const std::string t = perfbench::first_difference(traced.result, ref.run);
             !t.empty()) {
    problem = "traced 2-shard result differs in " + t;
  }
  checks->run(job.label + "@shards=2", problem);
  loop->add(traced.loop);
  return plain_ns;
}

int trace(const Workload& w, double seconds, std::int64_t parse_ns) {
  using namespace perfbench;
  Checks checks;
  LoopProfile loop;
  CallTotals calls;
  std::vector<double> overhead;
  LoopProfile sharded;          // batch-drain's 2-shard traced runs
  std::vector<double> speedup;  // untraced 1-shard / 2-shard wall, per rep
  std::vector<JobOutcome> first;
  std::uint64_t slab_capacity = 0;  // summed over the first rep's jobs
  std::uint64_t slabs_recycled = 0;
  std::uint64_t reps = 0;

  const Budget budget(seconds);
  for (std::int64_t last = -1; budget.another(last); ++reps) {
    const std::int64_t pair0 = now_ns();
    std::vector<JobOutcome> plain;
    for (const Job& job : w.jobs) plain.push_back(run_digested(job));
    const std::int64_t plain_ns = now_ns() - pair0;

    reset_call_stats();
    const std::int64_t traced0 = now_ns();
    std::vector<TracedRun> traced;
    for (const Job& job : w.jobs) traced.push_back(run_traced(job.scenario, job.seed));
    const std::int64_t traced_ns = now_ns() - traced0;
    const CallTotals c = collect_call_stats();
    if (w.name == "batch-drain") {
      const std::int64_t sharded_ns =
          shard_pass(w.jobs.front(), plain.front(), &checks, &sharded);
      speedup.push_back(ratio(static_cast<double>(plain_ns), static_cast<double>(sharded_ns)));
    }
    last = now_ns() - pair0;
    overhead.push_back(ratio(static_cast<double>(traced_ns), static_cast<double>(plain_ns)));

    for (std::size_t i = 0; i < w.jobs.size(); ++i) {
      std::string problem;
      if (traced[i].digest != plain[i].digest) {
        problem = "traced digest " + traced[i].digest + " != untraced " + plain[i].digest;
      } else if (const std::string d = first_difference(traced[i].result, plain[i].run);
                 !d.empty()) {
        problem = "traced result differs in " + d;
      } else if (!first.empty() && plain[i].digest != first[i].digest) {
        problem = "digest differs from the first rep";
      } else if (traced[i].loop.accesses != accesses_of(plain[i].run)) {
        problem = "probed accessor count != access_stats.sum()";
      }
      checks.run(w.jobs[i].label + "@traced", problem);
      loop.add(traced[i].loop);
      if (first.empty()) {
        slab_capacity += traced[i].result.slab_capacity;
        slabs_recycled += traced[i].result.slabs_recycled;
      }
    }
    calls.add(c);
    if (first.empty()) first = std::move(plain);
  }

  // Every rep runs the same jobs at the same seed, so counts per rep are
  // the totals over `reps`; times are summed over every traced rep.
  const double n = static_cast<double>(reps);
  const double acc = static_cast<double>(loop.accesses);
  const double proto_calls = static_cast<double>(calls.count(kCallQuery) +
                                                 calls.count(kCallUpdate) + calls.count(kCallGap));
  double covered = 0.0;
  for (std::size_t s = 0; s < kSpanCount; ++s) covered += static_cast<double>(loop.span_ns[s]);

  const double timer = calls.timer_ns();
  JsonWriter j;
  j.begin_object();
  j.member("mode", "trace");
  j.member("reps", reps);
  j.member("timer_ns", timer);
  j.key("layers").begin_object();
  auto metric = [&j](const char* name, double value, const char* unit) {
    j.key(name).begin_object();
    j.member("value", value);
    j.member("unit", unit);
    j.end_object();
  };
  // Metrics built on a child call's sampled time. A call whose net time is
  // below the timer's own cost is too cheap to resolve: it is listed under
  // "unresolved" with its raw sampled mean, and its value is the unclamped
  // net estimate.
  std::vector<std::pair<std::string, double>> unresolved;
  auto timed = [&](const char* name, Call c, double value) {
    metric(name, value, "ns");
    if (!calls.resolved(c)) unresolved.emplace_back(name, calls.raw_ns(c));
  };
  // A span's own time: its laps, less one timer cost per lap, less its
  // children on the driver thread (see layers.hpp).
  auto self_ns = [&](Span s) {
    return static_cast<double>(loop.span_ns[s]) -
           static_cast<double>(loop.span_calls[s]) * timer - calls.driver_children_ns(s);
  };
  const double resolve_self = self_ns(kSpanResolve);
  metric("sim.resolve.self_ns_per_access", ratio(resolve_self, acc), "ns");
  metric("sim.resolve.slots", static_cast<double>(loop.slots) / n, "count");
  metric("sim.resolve.accesses", acc / n, "count");
  metric("sim.resolve.bucket_max", static_cast<double>(loop.bucket_max), "count");
  metric("sim.resolve.heavy_access_share", ratio(static_cast<double>(loop.heavy_accesses), acc),
         "ratio");
  // Inclusive resolve time (children included) less the lap's timer cost.
  const double heavy_slots = static_cast<double>(loop.heavy_slots);
  const double light_slots = static_cast<double>(loop.slots) - heavy_slots;
  metric("sim.resolve.heavy_ns_per_access",
         ratio(static_cast<double>(loop.heavy_ns) - heavy_slots * timer,
               static_cast<double>(loop.heavy_accesses)),
         "ns");
  metric("sim.resolve.light_ns_per_access",
         ratio(static_cast<double>(loop.light_ns) - light_slots * timer,
               acc - static_cast<double>(loop.heavy_accesses)),
         "ns");
  // Fork/join: the same split on batch-drain's 2-shard traced runs (0 on
  // the other workloads, which have no shard pass).
  const double sharded_heavy = static_cast<double>(sharded.heavy_slots);
  const double sharded_light = static_cast<double>(sharded.slots) - sharded_heavy;
  metric("sim.shard2.heavy_ns_per_access",
         ratio(static_cast<double>(sharded.heavy_ns) - sharded_heavy * timer,
               static_cast<double>(sharded.heavy_accesses)),
         "ns");
  metric("sim.shard2.light_ns_per_access",
         ratio(static_cast<double>(sharded.light_ns) - sharded_light * timer,
               static_cast<double>(sharded.accesses) -
                   static_cast<double>(sharded.heavy_accesses)),
         "ns");
  metric("sim.shard2.speedup", median(speedup), "ratio");
  metric("protocols.calls_per_access", ratio(proto_calls, acc), "count");
  timed("protocols.update.ns_per_call", kCallUpdate, calls.mean_ns(kCallUpdate));
  timed("protocols.gap.ns_per_draw", kCallGap, calls.mean_ns(kCallGap));
  timed("protocols.create.ns_per_call", kCallCreate, calls.mean_ns(kCallCreate));
  metric("sim.inject.ns_per_packet",
         ratio(self_ns(kSpanInject), static_cast<double>(loop.injected)), "ns");
  metric("sim.store.slab_capacity", static_cast<double>(slab_capacity), "count");
  metric("sim.store.slabs_recycled", static_cast<double>(slabs_recycled), "count");
  metric("adversary.arrivals.next_calls", static_cast<double>(calls.count(kCallArrivals)) / n,
         "count");
  timed("adversary.arrivals.ns_per_burst", kCallArrivals,
        ratio(calls.mean_ns(kCallArrivals) * static_cast<double>(calls.count(kCallArrivals)),
              static_cast<double>(loop.bursts)));
  metric("adversary.jammer.jam_calls", static_cast<double>(calls.count(kCallJam)) / n, "count");
  timed("adversary.jammer.jam_ns_per_call", kCallJam, calls.mean_ns(kCallJam));
  metric("adversary.jammer.jams", static_cast<double>(loop.jams) / n, "count");
  metric("sim.quiet.spans", static_cast<double>(loop.quiet_spans) / n, "count");
  metric("sim.quiet.slots", static_cast<double>(loop.quiet_slots) / n, "count");
  timed("adversary.jammer.quiet_ns_per_kslot", kCallQuietRange,
        ratio(calls.mean_ns(kCallQuietRange) * static_cast<double>(calls.count(kCallQuietRange)),
              static_cast<double>(loop.quiet_slots) / 1000.0));
  metric("sim.events", static_cast<double>(loop.queries) / n, "count");
  metric("sim.wheel.query_ns_per_event",
         ratio(self_ns(kSpanWheel), static_cast<double>(loop.queries)), "ns");
  timed("metrics.digest.ns_per_event", kCallDigest, calls.mean_ns(kCallDigest));
  metric("harness.pack.parse_ns", static_cast<double>(parse_ns), "ns");
  metric("harness.setup.engine_ns",
         ratio(static_cast<double>(loop.construct_ns), n * static_cast<double>(w.jobs.size())),
         "ns");
  metric("trace.coverage", ratio(covered, static_cast<double>(loop.wall_ns)), "ratio");
  metric("trace.overhead_ratio", median(overhead), "ratio");
  j.end_object();
  j.key("unresolved").begin_object();
  for (const auto& [name, raw] : unresolved) j.member(name, raw);
  j.end_object();
  write_totals(j, first);
  j.key("digests").begin_object();
  for (std::size_t i = 0; i < first.size(); ++i) j.member(w.jobs[i].label, first[i].digest);
  j.end_object();
  write_checks(j, checks);
  j.end_object();
  std::cout << j.str() << "\n";
  return checks.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t entry_ns = now_ns();
  lowsense::Args args(argc, argv);
  const std::string name = args.str("workload", "");
  const std::string mode = args.str("mode", "measure");
  const std::uint64_t seed = args.u64("seed", perfbench::kDefaultSeed);
  const double seconds = args.f64("seconds", 10.0);
  const std::string packs = args.str("packs", "packs");
  if (const auto bad = args.unknown_keys(); !bad.empty() || name.empty() ||
                                            (mode != "setup" && mode != "measure" &&
                                             mode != "trace") ||
                                            !(seconds > 0.0)) {
    std::cerr << "usage: perfbench_driver --workload=NAME --mode=setup|measure|trace "
                 "--seed=N --seconds=S --packs=DIR\n";
    return 2;
  }

  Workload w;
  std::string error;
  const std::int64_t parse0 = now_ns();
  if (!perfbench::build_workload(name, seed, packs, &w, &error)) {
    std::cerr << "perfbench_driver: " << error << "\n";
    return 2;
  }
  const std::int64_t parse_ns = now_ns() - parse0;
  const char* tier = lowsense::simd::active_tier_name();  // the dispatch probe
  const std::int64_t ready_ns = build_first_engine(w.jobs.front());
  if (mode == "setup") {
    JsonWriter j;
    j.begin_object();
    j.member("mode", "setup");
    j.member("setup_ns", static_cast<double>(ready_ns - entry_ns));
    j.member("simd_tier", tier);
    j.member("compiler", PERFBENCH_COMPILER);
    j.member("build_type", PERFBENCH_BUILD_TYPE);
    j.end_object();
    std::cout << j.str() << "\n";
    return 0;
  }
  if (mode == "trace") return trace(w, seconds, parse_ns);
  return measure(w, seconds, ready_ns - entry_ns);
}
