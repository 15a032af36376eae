#include "harness/suite.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/parse.hpp"
#include "harness/scenario.hpp"

namespace lowsense {

namespace {

std::string render_f64(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

// A declared param's value: the flag when given, else its default, which
// BenchParam rendered as text and which therefore always parses.
std::uint64_t param_u64(const Args& args, const BenchParam& p) {
  return args.u64(p.key, parse_u64(p.fallback).value());
}

double param_f64(const Args& args, const BenchParam& p) {
  return args.f64(p.key, parse_f64(p.fallback).value());
}

const char* kind_name(BenchParam::Kind kind) {
  switch (kind) {
    case BenchParam::Kind::kU64: return "u64";
    case BenchParam::Kind::kF64: return "f64";
    case BenchParam::Kind::kStr: return "str";
  }
  return "?";
}

// The basename of argv[0], so usage names the program that printed it.
std::string program_name(int argc, char** argv) {
  if (argc < 1 || argv[0] == nullptr) return "bench";
  const std::string path = argv[0];
  return path.substr(path.rfind('/') + 1);
}

void print_usage(const BenchDef& def, const std::string& prog, std::FILE* to) {
  const std::string pad(prog.size() + 8, ' ');
  std::fprintf(to, "%s · %s — %s\n\n", def.id.c_str(), def.paper_anchor.c_str(),
               def.claim.c_str());
  std::fprintf(to,
               "usage: %s [--reps=N] [--seed=S] [--threads=K] [--engine=event|slot]\n"
               "%s[--jammer=SPEC] [--jam-seed=J] [--arrivals=SPEC] [--json=PATH]\n"
               "%s[--PARAM=VALUE ...] [--list] [--help]\n"
               "       %s --pack=FILE[:name] [--manifest=PATH] [--engine=event|slot]\n"
               "%s[--json=PATH]\n",
               prog.c_str(), pad.c_str(), pad.c_str(), prog.c_str(), pad.c_str());
  std::fprintf(to, "defaults: --reps=%d --seed=%llu --threads=1 --engine=event\n", def.default_reps,
               static_cast<unsigned long long>(def.default_seed));
  if (!def.params.empty()) {
    std::fprintf(to, "bench params:\n");
    for (const auto& p : def.params) {
      std::fprintf(to, "  --%s=%s  (%s) %s\n", p.key.c_str(), p.fallback.c_str(),
                   kind_name(p.kind), p.help.c_str());
    }
  }
  std::fprintf(to,
               "--threads=K runs replicates on K workers (0 = every core); serial and\n"
               "  parallel output are byte-identical. Each run itself is serial.\n"
               "--jammer/--arrivals override every scenario's adversary/arrival process:\n"
               "  jammers : none | random:rate[,budget] | burst:period,len | victim:id,budget |\n"
               "            blanket:budget | band:lo,hi,budget |\n"
               "            randband:lo,hi,rate[,budget[,jitter]]\n"
               "  arrivals: batch:N | poisson:rate,N | aqt:lambda,S,pattern,N\n"
               "--jam-seed=J pins randomized jammers to one fixed adversary across replicates.\n"
               "--json=PATH writes the structured lowsense-bench/v1 result document.\n"
               "--pack=FILE[:name] runs the scenario pack (every entry, or just `name`)\n"
               "  at its pinned seeds instead of the bench body; any other flag but\n"
               "  --engine=, --json= and --manifest= is a usage error. Exit 0 when every\n"
               "  pinned digest and expectation passes, 1 when one fails.\n"
               "--manifest=PATH writes the pack's lowsense-pack/v1 JSONL manifest.\n"
               "Exit 2 on a usage error. Outside --pack=, shape checks are reported\n"
               "  as verdicts and a completed run exits 0.\n");
}

void print_list(const BenchDef& def) {
  std::printf("bench: %s\n", def.id.c_str());
  std::printf("anchor: %s\n", def.paper_anchor.c_str());
  std::printf("claim: %s\n", def.claim.c_str());
  std::printf("defaults: reps=%d seed=%llu\n", def.default_reps,
              static_cast<unsigned long long>(def.default_seed));
  for (const auto& p : def.params) {
    std::printf("param: %s kind=%s default=%s help=%s\n", p.key.c_str(), kind_name(p.kind),
                p.fallback.c_str(), p.help.c_str());
  }
  std::string flags;
  for (const auto& k : suite_flag_keys()) flags += (flags.empty() ? "" : " ") + k;
  std::printf("flags: %s\n", flags.c_str());
}

}  // namespace

BenchParam BenchParam::u64(std::string key, std::uint64_t dflt, std::string help) {
  return {std::move(key), Kind::kU64, std::to_string(dflt), std::move(help)};
}

BenchParam BenchParam::f64(std::string key, double dflt, std::string help) {
  return {std::move(key), Kind::kF64, render_f64(dflt), std::move(help)};
}

BenchParam BenchParam::str(std::string key, std::string dflt, std::string help) {
  return {std::move(key), Kind::kStr, std::move(dflt), std::move(help)};
}

const std::vector<std::string>& suite_flag_keys() {
  static const std::vector<std::string> kKeys = {"reps",     "seed",     "threads",
                                                 "engine",   "jammer",   "jam-seed",
                                                 "arrivals", "json",     "pack",
                                                 "manifest", "list",     "help"};
  return kKeys;
}

bool parse_suite_options(const BenchDef& def, const Args& args, SuiteOptions* out,
                         std::string* error) {
  try {
    const std::uint64_t reps = args.u64("reps", static_cast<std::uint64_t>(def.default_reps));
    if (reps == 0 || reps > static_cast<std::uint64_t>(std::numeric_limits<int>::max())) {
      *error = "--reps= must be in [1, 2^31)";
      return false;
    }
    out->reps = static_cast<int>(reps);
    out->seed = args.u64("seed", def.default_seed);
    out->threads = thread_count_flag(args, "threads");
    out->engine = parse_engine(args.str("engine", "event"));
    out->jam_seed = args.u64("jam-seed", 0);
    out->jammer_spec = args.str("jammer", "");
    out->arrivals_spec = args.str("arrivals", "");
    out->json_path = args.str("json", "");
    out->pack_ref = args.str("pack", "");
    out->manifest_path = args.str("manifest", "");
    // The bench's own params, so that a malformed or empty one is a
    // usage error here rather than a throw out of BenchContext.
    for (const auto& p : def.params) {
      if (p.kind == BenchParam::Kind::kU64) param_u64(args, p);
      if (p.kind == BenchParam::Kind::kF64) param_f64(args, p);
      if (p.kind == BenchParam::Kind::kStr) args.str(p.key, p.fallback);
    }
  } catch (const std::invalid_argument& e) {
    *error = e.what();
    return false;
  }
  if (!out->jammer_spec.empty() && !parse_jammer_spec(out->jammer_spec, out->jam_seed)) {
    *error = "bad --jammer= spec '" + out->jammer_spec + "'";
    return false;
  }
  if (!out->arrivals_spec.empty() && !parse_arrivals_spec(out->arrivals_spec)) {
    *error = "bad --arrivals= spec '" + out->arrivals_spec + "'";
    return false;
  }
  if (!out->pack_ref.empty()) {
    // The pack pins every scenario and seed: a flag that would change
    // them (or a bench param, which the pack never reads) is refused.
    for (const std::string& k : args.keys()) {
      if (k != "pack" && k != "engine" && k != "json" && k != "manifest") {
        *error = "--" + k + "= does not apply with --pack= (the pack pins every scenario " +
                 "and seed; only --engine=, --json= and --manifest= do)";
        return false;
      }
    }
    ScenarioPack pack;
    if (!load_scenario_pack_ref(out->pack_ref, &pack, error)) return false;
  } else if (!out->manifest_path.empty()) {
    *error = "--manifest= needs --pack=";
    return false;
  }
  return true;
}

BenchContext::BenchContext(const BenchDef& def, const Args& args, const SuiteOptions& opts,
                           std::vector<ResultSink*> sinks, ParallelExecutor* pool)
    : opts_(opts), sinks_(std::move(sinks)), pool_(pool) {
  for (const auto& p : def.params) {
    switch (p.kind) {
      case BenchParam::Kind::kU64:
        u64_[p.key] = param_u64(args, p);
        break;
      case BenchParam::Kind::kF64:
        f64_[p.key] = param_f64(args, p);
        break;
      case BenchParam::Kind::kStr:
        str_[p.key] = args.str(p.key, p.fallback);
        break;
    }
  }
  if (!opts_.jammer_spec.empty()) {
    jammer_override_ = parse_jammer_spec(opts_.jammer_spec, opts_.jam_seed);
  }
  if (!opts_.arrivals_spec.empty()) {
    arrivals_override_ = parse_arrivals_spec(opts_.arrivals_spec);
  }
}

std::uint64_t BenchContext::u64(const std::string& key) const {
  const auto it = u64_.find(key);
  if (it == u64_.end()) throw std::logic_error("undeclared u64 bench param '" + key + "'");
  return it->second;
}

double BenchContext::f64(const std::string& key) const {
  const auto it = f64_.find(key);
  if (it == f64_.end()) throw std::logic_error("undeclared f64 bench param '" + key + "'");
  return it->second;
}

const std::string& BenchContext::str(const std::string& key) const {
  const auto it = str_.find(key);
  if (it == str_.end()) throw std::logic_error("undeclared str bench param '" + key + "'");
  return it->second;
}

Scenario BenchContext::apply_overrides(Scenario s) const {
  if (!s.engine_locked) s.engine = opts_.engine;
  if (jammer_override_) s.jammer = jammer_override_;
  if (arrivals_override_) s.arrivals = arrivals_override_;
  return s;
}

std::vector<MetricSummary> BenchContext::standard_metrics(const Replicates& r) {
  std::vector<MetricSummary> out;
  out.push_back({"throughput", r.throughput()});
  out.push_back({"implicit_throughput", r.implicit_throughput()});
  out.push_back({"mean_accesses", r.mean_accesses()});
  out.push_back({"max_accesses", r.max_accesses()});
  out.push_back({"peak_backlog", r.peak_backlog()});
  out.push_back({"mean_latency", r.summarize([](const RunResult& run) {
                   return run.latency_stats.mean();
                 })});
  out.push_back({"drained", r.summarize([](const RunResult& run) {
                   return run.drained ? 1.0 : 0.0;
                 })});
  return out;
}

Replicates BenchContext::run(Scenario scenario, const KvList& cell_params, int reps_override,
                             std::uint64_t seed_override) {
  scenario = apply_overrides(std::move(scenario));
  const int r = reps_override > 0 ? reps_override : opts_.reps;
  const std::uint64_t sd = seed_override != 0 ? seed_override : opts_.seed;

  const auto t0 = std::chrono::steady_clock::now();
  Replicates out = replicate_parallel(scenario, r, pool_, sd);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  ScenarioResult res;
  res.name = !scenario.name.empty() ? scenario.name : "scenario-" + std::to_string(++auto_named_);
  res.params = cell_params;
  res.engine = engine_name(scenario.engine);
  res.reps = r;
  res.metrics = standard_metrics(out);
  for (const auto& run : out.runs) res.total_active_slots += run.counters.active_slots;
  res.elapsed_sec = elapsed;
  record(std::move(res));
  return out;
}

RunResult BenchContext::run_one(Scenario scenario, std::uint64_t seed,
                                const std::vector<Observer*>& observers) {
  return run_scenario(apply_overrides(std::move(scenario)), seed, observers);
}

void BenchContext::section(const std::string& title) {
  for (auto* s : sinks_) s->section(title);
}

void BenchContext::note(const std::string& text) {
  for (auto* s : sinks_) s->note(text);
}

void BenchContext::table(const Table& t, const std::string& note) {
  for (auto* s : sinks_) s->table(t, note);
}

void BenchContext::check(const std::string& what, bool pass, const std::string& detail) {
  all_pass_ &= pass;
  const CheckResult c{what, pass, detail};
  for (auto* s : sinks_) s->check(c);
}

void BenchContext::record(ScenarioResult result) {
  for (auto* s : sinks_) s->scenario(result);
}

BenchMeta make_bench_meta(const BenchDef& def, const Args& args, const SuiteOptions& opts) {
  BenchMeta meta;
  meta.id = def.id;
  meta.paper_anchor = def.paper_anchor;
  meta.claim = def.claim;
  meta.options = {{"reps", std::to_string(opts.reps)},
                  {"seed", std::to_string(opts.seed)},
                  {"threads", std::to_string(opts.threads)},
                  {"engine", engine_name(opts.engine)},
                  {"jammer", opts.jammer_spec},
                  {"jam-seed", std::to_string(opts.jam_seed)},
                  {"arrivals", opts.arrivals_spec},
                  {"json", opts.json_path}};
  for (const auto& p : def.params) {
    std::string v;
    switch (p.kind) {
      case BenchParam::Kind::kU64:
        v = std::to_string(param_u64(args, p));
        break;
      case BenchParam::Kind::kF64:
        v = render_f64(param_f64(args, p));
        break;
      case BenchParam::Kind::kStr:
        v = args.str(p.key, p.fallback);
        break;
    }
    meta.params.emplace_back(p.key, v);
  }
  return meta;
}

int run_bench_suite(const BenchDef& def, int argc, char** argv) {
  const Args args(argc, argv);
  const std::string prog = program_name(argc, argv);

  std::vector<std::string> known = suite_flag_keys();
  for (const auto& p : def.params) known.push_back(p.key);
  const auto unknown = args.unknown_keys(known);
  if (!unknown.empty()) {
    std::string bad;
    for (const auto& k : unknown) bad += " " + k;
    std::fprintf(stderr, "unknown or repeated flag(s):%s\n\n", bad.c_str());
    print_usage(def, prog, stderr);
    return 2;
  }

  if (args.flag("help")) {
    print_usage(def, prog, stdout);
    return 0;
  }
  if (args.flag("list")) {
    print_list(def);
    return 0;
  }

  SuiteOptions opts;
  std::string error;
  if (!parse_suite_options(def, args, &opts, &error)) {
    std::fprintf(stderr, "%s\n\n", error.c_str());
    print_usage(def, prog, stderr);
    return 2;
  }

  TextSink text;
  std::optional<JsonSink> json;
  std::vector<ResultSink*> sinks{&text};
  if (!opts.json_path.empty()) {
    json.emplace(opts.json_path);
    sinks.push_back(&*json);
  }

  std::optional<ParallelExecutor> pool;
  if (opts.threads > 1) pool.emplace(opts.threads);

  BenchContext ctx(def, args, opts, sinks, pool ? &*pool : nullptr);
  const BenchMeta meta = make_bench_meta(def, args, opts);

  const auto t0 = std::chrono::steady_clock::now();
  for (auto* s : sinks) s->begin(meta);
  try {
    if (!opts.pack_ref.empty()) {
      // Pack mode: the pack replaces the bench body; parse_suite_options
      // already validated the reference, so a failure here is a race on
      // the file, not a CLI error.
      ScenarioPack pack;
      std::string perr;
      if (!load_scenario_pack_ref(opts.pack_ref, &pack, &perr)) {
        std::fprintf(stderr, "%s\n", perr.c_str());
        return 1;
      }
      ctx.section("pack: " + (pack.name.empty() ? opts.pack_ref : pack.name));
      if (!pack.description.empty()) ctx.note(pack.description);
      const std::vector<PackEntryOutcome> outcomes = run_scenario_pack(ctx, pack);
      if (!opts.manifest_path.empty()) {
        std::ofstream mf(opts.manifest_path, std::ios::binary);
        mf << render_pack_manifest(pack, outcomes);
        if (!mf) {
          std::fprintf(stderr, "cannot write manifest '%s'\n", opts.manifest_path.c_str());
          return 1;
        }
      }
    } else {
      def.body(ctx);
    }
  } catch (const std::invalid_argument& e) {
    // A value only the body can judge (e.g. an unknown protocol name):
    // the same usage error as a malformed flag.
    std::fprintf(stderr, "%s\n\n", e.what());
    print_usage(def, prog, stderr);
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench %s failed: %s\n", def.id.c_str(), e.what());
    return 1;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  for (auto* s : sinks) s->end(elapsed);

  if (json && !json->write_ok()) return 1;
  // A pack's pinned digests and expectations are its verdict; a bench
  // body's shape checks are only reported.
  return opts.pack_ref.empty() || ctx.all_checks_passed() ? 0 : 1;
}

}  // namespace lowsense
