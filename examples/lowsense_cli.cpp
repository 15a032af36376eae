// General-purpose scenario runner: compose any protocol × arrival process
// × jammer from the command line and get a metrics table (and, with
// --json=, the structured lowsense-bench/v1 document). This is the "kick
// the tires" tool for the whole public API. It runs on the suite runner
// (harness/suite.hpp), so it takes the uniform bench flags and runs
// scenario packs exactly as every bench does.
//
//   ./lowsense_cli --protocol=low-sensing --arrivals=batch:10000
//                  --jammer=random:0.2 --reps=5 --seed=1 --threads=0
//   ./lowsense_cli --protocol=beb --arrivals=poisson:0.05,5000
//   ./lowsense_cli --arrivals=aqt:0.2,1024,front,20000 --jammer=burst:1000,100
//                  --json=cli.json
//   ./lowsense_cli --pack=packs/sensor-swarm-churn.pack --manifest=out.jsonl
//
// Without --arrivals= / --jammer= the scenario is batch:1000 with no
// jammer. `--help` lists the arrival and jammer specs.
#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/table.hpp"
#include "harness/suite.hpp"
#include "protocols/registry.hpp"

using namespace lowsense;

namespace {

std::string protocol_help() {
  std::string help = "protocol:";
  for (const auto& name : protocol_names()) help += " " + name;
  return help;
}

void run_cli(BenchContext& ctx) {
  const std::string proto = ctx.str("protocol");
  if (!make_protocol(proto)) throw std::invalid_argument("unknown protocol '" + proto + "'");

  Scenario s;
  s.name = proto;
  s.protocol = [proto] { return make_protocol(proto); };
  s.arrivals = parse_arrivals_spec("batch:1000");  // and no jammer
  s.config.max_active_slots = ctx.u64("max-active-slots");

  const auto t0 = std::chrono::steady_clock::now();
  Replicates r;
  r.runs = ctx.map(static_cast<std::size_t>(ctx.reps()), [&](std::size_t i) {
    return ctx.run_one(s, ctx.seed() + static_cast<std::uint64_t>(i));
  });
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  Table table({"metric", "median", "min", "max"});
  ScenarioResult res;
  auto add = [&](const std::string& name, const Summary& sum, int prec = 4) {
    table.add_row({name, Table::num(sum.median, prec), Table::num(sum.min, prec),
                   Table::num(sum.max, prec)});
    res.metrics.push_back({name, sum});
  };
  add("throughput (T+J)/S", r.throughput(), 3);
  add("implicit throughput", r.implicit_throughput(), 3);
  add("active slots", r.summarize([](const RunResult& x) {
        return static_cast<double>(x.counters.active_slots);
      }));
  add("jammed active slots", r.summarize([](const RunResult& x) {
        return static_cast<double>(x.counters.jammed_active_slots);
      }));
  add("delivered", r.summarize([](const RunResult& x) {
        return static_cast<double>(x.counters.successes);
      }));
  add("peak backlog", r.peak_backlog());
  add("mean accesses/pkt", r.mean_accesses());
  add("max accesses/pkt", r.max_accesses());
  add("mean sends/pkt", r.summarize([](const RunResult& x) { return x.send_stats.mean(); }));
  add("mean latency", r.summarize([](const RunResult& x) { return x.latency_stats.mean(); }));
  add("max window", r.summarize([](const RunResult& x) { return x.max_window_seen; }));
  add("drained (1=yes)", r.summarize([](const RunResult& x) { return x.drained ? 1.0 : 0.0; }), 1);

  ctx.section("protocol: " + proto);
  ctx.table(table, "(reps=" + std::to_string(ctx.reps()) + ", seed=" +
                       std::to_string(ctx.seed()) + ")");

  res.name = s.name;
  res.params = {{"protocol", proto}};
  res.engine = engine_name(ctx.engine());
  res.reps = ctx.reps();
  for (const auto& run : r.runs) res.total_active_slots += run.counters.active_slots;
  res.elapsed_sec = elapsed;
  ctx.record(std::move(res));
}

}  // namespace

int main(int argc, char** argv) {
  BenchDef def;
  def.id = "lowsense_cli";
  def.paper_anchor = "CLI";
  def.claim = "ad-hoc scenario: any protocol x arrival process x jammer (default batch:1000, "
              "no jammer)";
  def.params = {BenchParam::str("protocol", "low-sensing", protocol_help()),
                BenchParam::u64("max-active-slots", 50000000ULL, "active-slot budget per run")};
  def.default_reps = 3;
  def.default_seed = 1;
  def.body = run_cli;
  return run_bench_suite(def, argc, argv);
}
