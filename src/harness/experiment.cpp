#include "harness/experiment.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>

#include "core/parse.hpp"
#include "sim/sim_core.hpp"

namespace lowsense {

EngineKind parse_engine(const std::string& name) {
  if (name == "event") return EngineKind::kEvent;
  if (name == "slot") return EngineKind::kSlot;
  throw std::invalid_argument("unknown engine '" + name + "' (expected event|slot)");
}

const char* engine_name(EngineKind kind) noexcept {
  return kind == EngineKind::kSlot ? "slot" : "event";
}

namespace {

/// Keeps empty fields, so a trailing separator ("batch:10,") is an extra
/// (malformed) field rather than nothing.
std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t pos; (pos = s.find(sep, start)) != std::string::npos; start = pos + 1) {
    out.push_back(s.substr(start, pos - start));
  }
  out.push_back(s.substr(start));
  return out;
}

}  // namespace

std::function<std::unique_ptr<Jammer>(std::uint64_t)> parse_jammer_spec(const std::string& spec,
                                                                        std::uint64_t jam_seed) {
  if (spec.empty() || spec == "none") {
    return [](std::uint64_t) { return std::make_unique<NoJammer>(); };
  }
  const auto colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const std::vector<std::string> args =
      colon == std::string::npos ? std::vector<std::string>{} : split(spec.substr(colon + 1), ',');

  std::function<std::unique_ptr<Jammer>(std::uint64_t)> factory;
  try {
    if (kind == "random" && !args.empty() && args.size() <= 2) {
      const double rate = parse_f64(args[0]).value();
      const std::uint64_t budget = args.size() > 1 ? parse_u64(args[1]).value() : 0;
      factory = [rate, budget, jam_seed](std::uint64_t seed) {
        return std::make_unique<RandomJammer>(rate, budget, jammer_rng(jam_seed, seed, 0xb1));
      };
    } else if (kind == "burst" && args.size() == 2) {
      const Slot period = parse_u64(args[0]).value();
      const Slot len = parse_u64(args[1]).value();
      factory = [period, len](std::uint64_t) { return std::make_unique<BurstJammer>(period, len); };
    } else if (kind == "victim" && args.size() == 2) {
      const PacketId id = parse_u64(args[0]).value();
      const std::uint64_t budget = parse_u64(args[1]).value();
      factory = [id, budget](std::uint64_t) {
        return std::make_unique<ReactiveVictimJammer>(id, budget);
      };
    } else if (kind == "blanket" && args.size() == 1) {
      const std::uint64_t budget = parse_u64(args[0]).value();
      factory = [budget](std::uint64_t) { return std::make_unique<ReactiveBlanketJammer>(budget); };
    } else if (kind == "band" && args.size() == 3) {
      const double lo = parse_f64(args[0]).value();
      const double hi = parse_f64(args[1]).value();
      const std::uint64_t budget = parse_u64(args[2]).value();
      factory = [lo, hi, budget](std::uint64_t) {
        return std::make_unique<ContentionBandJammer>(lo, hi, budget);
      };
    } else if (kind == "randband" && args.size() >= 3 && args.size() <= 5) {
      const double lo = parse_f64(args[0]).value();
      const double hi = parse_f64(args[1]).value();
      const double rate = parse_f64(args[2]).value();
      const std::uint64_t budget = args.size() > 3 ? parse_u64(args[3]).value() : 0;
      const double jitter = args.size() > 4 ? parse_f64(args[4]).value() : 0.0;
      factory = [lo, hi, rate, budget, jitter, jam_seed](std::uint64_t seed) {
        return std::make_unique<RandomContentionJammer>(lo, hi, rate, budget,
                                                        jammer_rng(jam_seed, seed, 0xb2), jitter);
      };
    }
    // Validate the parameter ranges eagerly: constructors throw on bad
    // values (rate outside [0,1], inverted band, ...), and callers expect
    // a nullptr for ANY bad spec rather than a throwing factory.
    if (factory) factory(1);
  } catch (const std::exception&) {
    return nullptr;  // malformed number (bad_optional_access) or rejected value
  }
  return factory;
}

std::function<std::unique_ptr<ArrivalProcess>(std::uint64_t)> parse_arrivals_spec(
    const std::string& spec) {
  const auto colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const std::vector<std::string> args =
      colon == std::string::npos ? std::vector<std::string>{} : split(spec.substr(colon + 1), ',');

  std::function<std::unique_ptr<ArrivalProcess>(std::uint64_t)> factory;
  try {
    if (kind == "batch" && args.size() == 1) {
      const std::uint64_t n = parse_u64(args[0]).value();
      factory = [n](std::uint64_t) { return std::make_unique<BatchArrivals>(n); };
    } else if (kind == "poisson" && args.size() == 2) {
      const double rate = parse_f64(args[0]).value();
      const std::uint64_t n = parse_u64(args[1]).value();
      factory = [rate, n](std::uint64_t seed) {
        return std::make_unique<PoissonArrivals>(rate, n, Rng::stream(seed, 0xa1));
      };
    } else if (kind == "aqt" && args.size() == 4) {
      const double lambda = parse_f64(args[0]).value();
      const Slot s = parse_u64(args[1]).value();
      AqtPattern pattern = AqtPattern::kFront;
      if (args[2] == "spread") pattern = AqtPattern::kSpread;
      else if (args[2] == "random") pattern = AqtPattern::kRandom;
      else if (args[2] == "pulse") pattern = AqtPattern::kPulse;
      else if (args[2] != "front") return nullptr;
      const std::uint64_t n = parse_u64(args[3]).value();
      factory = [=](std::uint64_t seed) {
        return std::make_unique<AqtArrivals>(lambda, s, pattern, n, Rng::stream(seed, 0xa2));
      };
    }
    // Validate eagerly, as parse_jammer_spec does: the constructors throw
    // on bad values (rate NaN or <= 0, lambda outside (0,1], ...).
    if (factory) factory(1);
  } catch (const std::exception&) {
    return nullptr;  // malformed number (bad_optional_access) or rejected value
  }
  return factory;
}

RunResult run_scenario(const Scenario& scenario, std::uint64_t seed,
                       const std::vector<Observer*>& observers) {
  if (!scenario.protocol || !scenario.arrivals) {
    throw std::invalid_argument("Scenario: protocol and arrivals are required");
  }
  auto factory = scenario.protocol();
  auto arrivals = scenario.arrivals(seed);
  std::unique_ptr<Jammer> jammer =
      scenario.jammer ? scenario.jammer(seed) : std::make_unique<NoJammer>();

  RunConfig config = scenario.config;
  config.seed = seed;

  detail::SimCore core(*factory, *arrivals, *jammer, config);
  for (auto* obs : observers) core.add_observer(obs);
  return core.run(scenario.engine);
}

Summary Replicates::summarize(const std::function<double(const RunResult&)>& metric) const {
  std::vector<double> xs;
  xs.reserve(runs.size());
  for (const auto& r : runs) xs.push_back(metric(r));
  return Summary::of(std::move(xs));
}

Summary Replicates::throughput() const {
  return summarize([](const RunResult& r) { return r.throughput(); });
}

Summary Replicates::implicit_throughput() const {
  return summarize([](const RunResult& r) { return r.implicit_throughput(); });
}

Summary Replicates::mean_accesses() const {
  return summarize([](const RunResult& r) { return r.mean_accesses(); });
}

Summary Replicates::max_accesses() const {
  return summarize([](const RunResult& r) { return static_cast<double>(r.max_accesses); });
}

Summary Replicates::peak_backlog() const {
  return summarize([](const RunResult& r) { return static_cast<double>(r.peak_backlog); });
}

StreamingStats Replicates::merged_access_stats() const {
  StreamingStats s;
  for (const auto& r : runs) s.merge(r.access_stats);
  return s;
}

StreamingStats Replicates::merged_send_stats() const {
  StreamingStats s;
  for (const auto& r : runs) s.merge(r.send_stats);
  return s;
}

StreamingStats Replicates::merged_latency_stats() const {
  StreamingStats s;
  for (const auto& r : runs) s.merge(r.latency_stats);
  return s;
}

Replicates replicate(const Scenario& scenario, int reps, std::uint64_t base_seed) {
  Replicates out;
  out.runs.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    out.runs.push_back(run_scenario(scenario, base_seed + static_cast<std::uint64_t>(i)));
  }
  return out;
}

Args::Args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      // Not a --key[=value] flag. No entry point here takes positional
      // arguments, so a `-threads=8` or `n=99` is a typo: keep the raw
      // token so unknown_keys() can reject it instead of the accessors
      // silently never seeing it.
      malformed_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      kv_.emplace_back(arg, "");
    } else {
      kv_.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
    }
  }
}

std::uint64_t Args::u64(const std::string& key, std::uint64_t fallback) const {
  queried_.push_back(key);
  for (const auto& [k, v] : kv_) {
    if (k == key) {
      if (const auto n = parse_u64(v)) return *n;
      throw std::invalid_argument("--" + key + "=" + v + ": expected an unsigned integer");
    }
  }
  return fallback;
}

double Args::f64(const std::string& key, double fallback) const {
  queried_.push_back(key);
  for (const auto& [k, v] : kv_) {
    if (k == key) {
      if (const auto x = parse_f64(v)) return *x;
      throw std::invalid_argument("--" + key + "=" + v + ": expected a finite number");
    }
  }
  return fallback;
}

std::string Args::str(const std::string& key, const std::string& fallback) const {
  queried_.push_back(key);
  for (const auto& [k, v] : kv_) {
    if (k == key) {
      if (!v.empty()) return v;
      throw std::invalid_argument("--" + key + "=: expected a value");
    }
  }
  return fallback;
}

bool Args::flag(const std::string& key) const {
  queried_.push_back(key);
  for (const auto& [k, v] : kv_) {
    if (k == key) return v.empty() || v == "1" || v == "true";
  }
  return false;
}

std::vector<std::string> Args::keys() const {
  std::vector<std::string> out;
  out.reserve(kv_.size());
  for (const auto& [k, v] : kv_) out.push_back(k);
  return out;
}

std::vector<std::string> Args::unknown_keys(const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  auto reported = [&out](const std::string& tok) {
    for (const auto& g : out) {
      if (g == tok) return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < kv_.size(); ++i) {
    const std::string& k = kv_[i].first;
    bool ok = false;
    for (const auto& g : known) ok |= g == k;
    for (const auto& g : queried_) ok |= g == k;
    const std::string tok = "--" + k;
    if (!ok && !reported(tok)) out.push_back(tok);
    // A repeated key: whichever value the accessor reads, the other one
    // would be silently dropped.
    const bool repeated = std::any_of(kv_.begin(), kv_.begin() + static_cast<std::ptrdiff_t>(i),
                                      [&k](const auto& kv) { return kv.first == k; });
    const std::string twice = tok + " (given more than once)";
    if (repeated && !reported(twice)) out.push_back(twice);
  }
  // Malformed tokens (wrong dash count, bare key=value) are never
  // acceptable, whatever the program's key list.
  for (const auto& raw : malformed_) {
    if (!reported(raw)) out.push_back(raw);
  }
  return out;
}

}  // namespace lowsense
