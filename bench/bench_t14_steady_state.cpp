// T14 · open-system steady state — slab recycling and streaming arrivals.
//
// Two halves, one contract. First, the HARD cross-check behind the
// open-system refactor: on finite scenarios the recycling slab store
// (config.reclaim on, the default) must produce runs BIT-IDENTICAL to
// the closed-population layout (reclaim off) — same counters, same
// floating-point contention, same per-packet stats — on both engines,
// because every observable quantity is keyed
// on logical packet ids, never on slab placement (see packet_store.hpp).
//
// Second, the capability the refactor buys: an UNBOUNDED Poisson stream
// (max_packets = 0) run for a fixed slot horizon. The windowed
// steady-state view (harness/steady_state.hpp) reports per-window
// throughput / backlog / latency after a warmup prefix, and the memory
// model is checked directly from the run summary: slabs ever allocated
// must track the PEAK LIVE BACKLOG, not the number of arrivals — the
// witness that resident memory is O(backlog), not O(horizon).
//
// Shape targets: zero open-vs-closed mismatches; slab capacity a small
// multiple of peak backlog and a small fraction of total arrivals;
// post-warmup per-window departure rate ~ the offered load.
#include <chrono>
#include <string>
#include <vector>

#include "harness/steady_state.hpp"
#include "harness/suite.hpp"
#include "protocols/registry.hpp"

using namespace lowsense;

namespace {

struct Cell {
  const char* label;
  const char* arrivals;  // parse_arrivals_spec syntax, "%n" = packet budget
  const char* jammer;    // parse_jammer_spec syntax
};

std::string subst_n(const char* pattern, std::uint64_t n) {
  std::string out(pattern);
  const auto pos = out.find("%n");
  if (pos != std::string::npos) out.replace(pos, 2, std::to_string(n));
  return out;
}

void body(BenchContext& ctx) {
  const std::uint64_t n = ctx.u64("n");
  const double rate = ctx.f64("rate");
  const std::uint64_t horizon = ctx.u64("horizon");
  const std::uint64_t window = ctx.u64("window");
  const std::uint64_t warmup = ctx.u64("warmup");
  const bool reclaim = ctx.u64("reclaim") != 0;

  // ---------------------------------------------- open vs closed identity
  ctx.section("open vs closed population (finite scenarios)");

  const Cell kGrid[] = {
      {"batch", "batch:%n", "none"},
      {"poisson", "poisson:0.05,%n", "random:0.3"},
      {"aqt-random", "aqt:0.3,64,random,%n", "burst:97,13"},
  };

  Table table({"cell", "engine", "active slots", "successes", "open slabs", "closed slabs",
               "recycled", "match"});
  bool all_match = true;

  for (const Cell& cell : kGrid) {
    const auto arr_factory = parse_arrivals_spec(subst_n(cell.arrivals, n));
    const auto jam_factory = parse_jammer_spec(cell.jammer, ctx.jam_seed());
    for (const EngineKind engine : {EngineKind::kSlot, EngineKind::kEvent}) {
      Scenario s;
      s.protocol = [] { return make_protocol("low-sensing"); };
      s.arrivals = arr_factory;
      s.jammer = jam_factory;
      s.engine = engine;
      s.engine_locked = true;
      s.config.max_active_slots = 400ULL * n;

      Replicates legs[2];  // [0] = open (reclaim), [1] = closed
      for (const bool closed : {false, true}) {
        Scenario variant = s;
        variant.config.reclaim = !closed;
        variant.name = std::string(cell.label) + "/" + engine_name(engine) +
                       (closed ? "/closed" : "/open");
        legs[closed] = ctx.run(std::move(variant),
                               {{"cell", cell.label},
                                {"engine", engine_name(engine)},
                                {"population", closed ? "closed" : "open"}});
      }

      const Replicates& open = legs[0];
      const Replicates& closed = legs[1];
      bool match = open.runs.size() == closed.runs.size();
      for (std::size_t i = 0; match && i < open.runs.size(); ++i) {
        const RunResult& a = open.runs[i];
        const RunResult& b = closed.runs[i];
        match &= a.counters.slot == b.counters.slot;
        match &= a.counters.active_slots == b.counters.active_slots;
        match &= a.counters.arrivals == b.counters.arrivals;
        match &= a.counters.successes == b.counters.successes;
        match &= a.counters.jammed_active_slots == b.counters.jammed_active_slots;
        match &= a.counters.backlog == b.counters.backlog;
        match &= a.counters.contention == b.counters.contention;  // exact FP
        match &= a.drained == b.drained;
        match &= a.max_accesses == b.max_accesses;
        match &= a.peak_backlog == b.peak_backlog;
        match &= a.max_window_seen == b.max_window_seen;
        match &= a.access_stats.count() == b.access_stats.count();
        match &= a.access_stats.sum() == b.access_stats.sum();
        match &= a.send_stats.sum() == b.send_stats.sum();
        match &= a.latency_stats.sum() == b.latency_stats.sum();
        // The memory model itself: the closed path never recycles and
        // keeps one slab per arrival; the open path never needs more.
        match &= b.slabs_recycled == 0;
        match &= b.slab_capacity == b.counters.arrivals;
        match &= a.slab_capacity <= b.slab_capacity;
      }
      all_match &= match;

      const RunResult& a0 = open.runs.front();
      const RunResult& b0 = closed.runs.front();
      table.add_row({cell.label, engine_name(engine),
                     std::to_string(a0.counters.active_slots),
                     std::to_string(a0.counters.successes),
                     std::to_string(a0.slab_capacity), std::to_string(b0.slab_capacity),
                     std::to_string(a0.slabs_recycled), match ? "yes" : "NO"});
    }
  }
  ctx.table(table, "(first replicate shown; match = every replicate bit-identical between "
                   "reclaim on and off, plus the closed leg allocating exactly one slab per "
                   "arrival)");
  ctx.check("open-system path bit-identical to closed population on both engines",
            all_match);

  // ------------------------------------------------ unbounded steady state
  ctx.section("steady state (unbounded Poisson stream)");

  Scenario steady;
  steady.name = "steady/poisson";
  steady.protocol = [] { return make_protocol("low-sensing"); };
  steady.arrivals = [rate](std::uint64_t seed) {
    return std::make_unique<PoissonArrivals>(rate, 0, Rng::stream(seed, 0xa1));
  };
  steady.jammer = [](std::uint64_t) { return std::make_unique<NoJammer>(); };
  steady.config.max_slot = horizon;
  steady.config.reclaim = reclaim;

  SteadyStateObserver windows(window);
  const auto t0 = std::chrono::steady_clock::now();
  const RunResult run = ctx.run_one(steady, ctx.seed(), {&windows});
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  Table wtab({"window start", "arrivals", "departures", "active slots", "mean backlog",
              "peak backlog", "mean latency"});
  const auto& series = windows.windows();
  const std::size_t stride = series.size() > 12 ? series.size() / 12 : 1;
  for (std::size_t i = 0; i < series.size(); i += stride) {
    const SteadyWindow& w = series[i];
    const double mean_backlog =
        w.active_slots ? static_cast<double>(w.backlog_slot_sum) /
                             static_cast<double>(w.active_slots)
                       : 0.0;
    wtab.add_row({std::to_string(w.start), std::to_string(w.arrivals),
                  std::to_string(w.departures), std::to_string(w.active_slots),
                  Table::num(mean_backlog), std::to_string(w.backlog_peak),
                  Table::num(w.latency.mean())});
  }
  ctx.table(wtab, "(every " + std::to_string(stride) + "th window of " +
                      std::to_string(series.size()) + "; width " + std::to_string(window) +
                      " slots)");

  const SteadySummary tail = windows.summarize(warmup);

  ScenarioResult sr;
  sr.name = "steady/poisson";
  sr.params = {{"rate", Table::num(rate)}, {"horizon", std::to_string(horizon)}};
  sr.engine = engine_name(ctx.engine());
  sr.reps = 1;
  sr.total_active_slots = run.counters.active_slots;
  sr.elapsed_sec = elapsed;
  sr.metrics.push_back({"peak_backlog", Summary::of({static_cast<double>(run.peak_backlog)})});
  sr.metrics.push_back(
      {"slab_capacity", Summary::of({static_cast<double>(run.slab_capacity)})});
  sr.metrics.push_back({"steady_window_rate", Summary::of({tail.window_rate.mean()})});
  sr.metrics.push_back({"steady_mean_latency", Summary::of({tail.latency.mean()})});
  if (run.slab_capacity > 0) {
    sr.derived.emplace_back("arrivals_per_slab",
                            static_cast<double>(run.counters.arrivals) /
                                static_cast<double>(run.slab_capacity));
  }
  if (run.peak_backlog > 0) {
    sr.derived.emplace_back("slabs_per_peak_backlog",
                            static_cast<double>(run.slab_capacity) /
                                static_cast<double>(run.peak_backlog));
  }
  ctx.record(std::move(sr));

  const std::uint64_t expect_arrivals =
      static_cast<std::uint64_t>(rate * static_cast<double>(horizon));
  ctx.check("unbounded stream kept flowing for the whole horizon",
            run.counters.arrivals > expect_arrivals / 2 && run.counters.slot >= horizon - 1,
            std::to_string(run.counters.arrivals) + " arrivals over " +
                std::to_string(horizon) + " slots");

  // The memory-model witness: compare against peak backlog with a
  // generous constant — what must NOT happen is capacity tracking the
  // arrival count (closed population would hold one slab per arrival).
  // The PASS line prints peak backlog and arrivals; the exact slab counts
  // live in the JSON metrics above (and in the detail when the check
  // fails).
  const std::uint64_t cap_bound = 8 * (run.peak_backlog + 1);
  const bool cap_ok = run.slab_capacity <= cap_bound &&
                      run.slab_capacity * 4 <= run.counters.arrivals;
  ctx.check("slab capacity tracks peak live backlog, not the arrival horizon",
            cap_ok,
            (cap_ok ? std::string("peak backlog ")
                    : "capacity " + std::to_string(run.slab_capacity) + ", peak backlog ") +
                std::to_string(run.peak_backlog) + ", arrivals " +
                std::to_string(run.counters.arrivals));

  const bool recycle_ok = run.slabs_recycled == run.counters.arrivals - run.slab_capacity &&
                          run.slabs_recycled > 0;
  ctx.check("slab recycling engaged (acquisitions served from free lists)", recycle_ok,
            recycle_ok ? "every departed slab reused"
                       : std::to_string(run.slabs_recycled) + " recycled, capacity " +
                             std::to_string(run.slab_capacity));

  // The pooled rate (departures per covered slot) rather than the mean of
  // per-window rates: a run whose inclusive horizon spills one slot into
  // a fresh window would otherwise contribute a wild 1-slot sample.
  const double mean_rate = tail.rate();
  ctx.check("post-warmup departure rate ~ offered load",
            mean_rate > 0.5 * rate && mean_rate < 1.5 * rate,
            "pooled " + Table::num(mean_rate) + " vs rate " + Table::num(rate));
}

}  // namespace

int main(int argc, char** argv) {
  BenchDef def;
  def.id = "T14";
  def.paper_anchor = "engineering (open-system storage)";
  def.claim =
      "slab recycling is observationally invisible: open-system runs are bit-identical "
      "to the closed population on finite scenarios, and unbounded streams run in memory "
      "proportional to the live backlog";
  def.params = {
      BenchParam::u64("n", 768, "packet budget per finite cross-check cell"),
      BenchParam::f64("rate", 0.08, "Poisson offered load of the unbounded stream"),
      BenchParam::u64("horizon", 400000, "slot horizon of the steady-state run"),
      BenchParam::u64("window", 20000, "slots per steady-state window"),
      BenchParam::u64("warmup", 5, "windows discarded before the steady-state summary"),
      BenchParam::u64("reclaim", 1,
                      "slab recycling in the steady-state run (0 demonstrates the "
                      "closed-population memory model scripts/mem_smoke.py guards against)"),
  };
  def.default_reps = 3;
  def.default_seed = 23;
  def.body = body;
  return run_bench_suite(def, argc, argv);
}
