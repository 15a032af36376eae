#include "workloads.hpp"

#include <algorithm>
#include <filesystem>

#include "protocols/registry.hpp"

namespace perfbench {

namespace {

lowsense::Scenario spec_scenario(const std::string& name, const std::string& protocol,
                                 const std::string& arrivals, const std::string& jammer,
                                 std::uint64_t jam_seed) {
  lowsense::Scenario s;
  s.name = name;
  s.protocol = [protocol] { return lowsense::make_protocol(protocol); };
  s.arrivals = lowsense::parse_arrivals_spec(arrivals);
  s.jammer = lowsense::parse_jammer_spec(jammer, jam_seed);
  return s;
}

bool golden_packs(std::uint64_t seed, const std::string& dir, Workload* out, std::string* error) {
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator(dir, ec)) {
    if (e.path().extension() == ".pack") files.push_back(e.path());
  }
  if (ec || files.empty()) {
    *error = "no *.pack files in '" + dir + "'";
    return false;
  }
  std::sort(files.begin(), files.end());
  for (const auto& f : files) {
    lowsense::ScenarioPack pack;
    if (!lowsense::load_scenario_pack(f.string(), &pack, error)) return false;
    for (lowsense::PackEntry e : pack.entries) {
      e.name = pack.name + "/" + e.name;
      if (seed != kDefaultSeed) {
        // Another seed, another run: the pinned digest and expectations
        // describe the pinned seed only.
        e.seed += seed - kDefaultSeed;
        e.digest.clear();
        e.expects.clear();
      }
      out->entries.push_back(std::move(e));
    }
  }
  for (std::size_t i = 0; i < out->entries.size(); ++i) {
    const lowsense::PackEntry& e = out->entries[i];
    for (const auto engine : {lowsense::EngineKind::kEvent, lowsense::EngineKind::kSlot}) {
      Job j;
      j.label = e.name + "@" + lowsense::engine_name(engine);
      j.scenario = lowsense::make_pack_scenario(e);
      j.scenario.engine = engine;
      j.seed = e.seed;
      j.entry = i;
      out->jobs.push_back(std::move(j));
    }
  }
  return true;
}

}  // namespace

bool build_workload(const std::string& name, std::uint64_t seed, const std::string& packs_dir,
                    Workload* out, std::string* error) {
  *out = Workload{};
  out->name = name;
  const std::string batch = "batch:" + std::to_string(kBatchPackets);
  if (name == "batch-drain") {
    Job j;
    j.label = name;
    j.scenario = spec_scenario(name, "low-sensing", batch, "none", 0);
    j.scenario.config.shards = 1;
    j.seed = seed;
    out->jobs.push_back(std::move(j));
    return true;
  }
  if (name == "jammed-stream") {
    Job j;
    j.label = name;
    j.scenario =
        spec_scenario(name, "low-sensing", "poisson:0.005,0", "random:0.2", kStreamJamSeed);
    j.scenario.config.max_active_slots = kStreamActiveSlots;
    j.seed = seed;
    out->jobs.push_back(std::move(j));
    return true;
  }
  if (name == "golden-packs") return golden_packs(seed, packs_dir, out, error);
  *error = "unknown workload '" + name + "'";
  return false;
}

std::string first_difference(const lowsense::RunResult& a, const lowsense::RunResult& b) {
  const auto& x = a.counters;
  const auto& y = b.counters;
  if (x.slot != y.slot) return "counters.slot";
  if (x.active_slots != y.active_slots) return "counters.active_slots";
  if (x.arrivals != y.arrivals) return "counters.arrivals";
  if (x.successes != y.successes) return "counters.successes";
  if (x.jammed_active_slots != y.jammed_active_slots) return "counters.jammed_active_slots";
  if (x.backlog != y.backlog) return "counters.backlog";
  if (x.contention != y.contention) return "counters.contention";
  if (a.drained != b.drained) return "drained";
  if (a.max_accesses != b.max_accesses) return "max_accesses";
  if (a.peak_backlog != b.peak_backlog) return "peak_backlog";
  if (a.max_window_seen != b.max_window_seen) return "max_window_seen";
  if (a.jams_total != b.jams_total) return "jams_total";
  if (a.access_stats.sum() != b.access_stats.sum()) return "access_stats";
  if (a.access_stats.count() != b.access_stats.count()) return "access_stats.count";
  if (a.send_stats.sum() != b.send_stats.sum()) return "send_stats";
  if (a.latency_stats.sum() != b.latency_stats.sum()) return "latency_stats";
  if (a.latency_stats.variance() != b.latency_stats.variance()) return "latency_stats.variance";
  return "";
}

std::uint64_t accesses_of(const lowsense::RunResult& r) {
  return static_cast<std::uint64_t>(r.access_stats.sum());
}

}  // namespace perfbench
