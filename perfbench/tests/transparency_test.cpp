// Decorator transparency: the traced run must be the same program as the
// untraced one. For every registry protocol and every jammer family, on
// both engines, a small scenario runs once plainly (run_scenario with a
// TraceDigest) and once through the layer probes and the traced driver
// loop; digests and results must agree bit for bit. A sharded case
// drives the probes from pool workers as well.
//
// Exit 0 when every case agrees, 1 otherwise (one line per failure).
#include <iostream>
#include <string>
#include <vector>

#include "layers.hpp"
#include "protocols/registry.hpp"
#include "workloads.hpp"

namespace {

struct Case {
  std::string protocol;
  std::string arrivals;
  std::string jammer;
  lowsense::EngineKind engine;
  unsigned shards;
};

std::string check(const Case& c, std::uint64_t seed) {
  lowsense::Scenario s;
  const std::string proto = c.protocol;
  s.protocol = [proto] { return lowsense::make_protocol(proto); };
  s.arrivals = lowsense::parse_arrivals_spec(c.arrivals);
  s.jammer = lowsense::parse_jammer_spec(c.jammer, 0);
  if (!s.arrivals || !s.jammer || !lowsense::make_protocol(proto)) return "bad spec";
  s.engine = c.engine;
  s.config.shards = c.shards;
  s.config.max_active_slots = 20000;

  lowsense::TraceDigest digest;
  const lowsense::RunResult plain = lowsense::run_scenario(s, seed, {&digest});
  perfbench::reset_call_stats();
  const perfbench::TracedRun traced = perfbench::run_traced(s, seed);
  const perfbench::CallTotals calls = perfbench::collect_call_stats();

  if (traced.digest != digest.hex()) return "digest " + traced.digest + " != " + digest.hex();
  if (const std::string d = perfbench::first_difference(traced.result, plain); !d.empty()) {
    return "result differs in " + d;
  }
  if (traced.loop.accesses != perfbench::accesses_of(plain)) return "accessor count differs";
  if (plain.counters.arrivals != 0 && calls.count(perfbench::kCallCreate) != plain.counters.arrivals) {
    return "create calls != arrivals";
  }
  return "";
}

}  // namespace

int main() {
  std::vector<std::string> protocols;
  for (const std::string& p : lowsense::protocol_names()) {
    protocols.push_back(p == "aloha:<p>" ? "aloha:0.05" : p);
  }
  const std::vector<std::string> jammers = {
      "none",     "random:0.1",         "burst:50,5", "victim:3,50", "blanket:40",
      "band:0.5,2.5,200", "randband:0.5,2.5,0.5,200,0.3"};

  std::vector<Case> cases;
  for (const std::string& p : protocols) {
    for (const std::string& jam : jammers) {
      for (const auto engine : {lowsense::EngineKind::kEvent, lowsense::EngineKind::kSlot}) {
        cases.push_back({p, "poisson:0.05,300", jam, engine, 1});
      }
    }
  }
  for (const auto engine : {lowsense::EngineKind::kEvent, lowsense::EngineKind::kSlot}) {
    cases.push_back({"low-sensing", "batch:600", "random:0.1", engine, 2});
  }

  int failures = 0;
  for (const Case& c : cases) {
    const std::string problem = check(c, 11);
    if (problem.empty()) continue;
    ++failures;
    std::cout << "FAIL " << c.protocol << " " << c.arrivals << " " << c.jammer << " "
              << lowsense::engine_name(c.engine) << " shards=" << c.shards << ": " << problem
              << "\n";
  }
  std::cout << (failures == 0 ? "PASS" : "FAIL") << " decorator transparency: "
            << cases.size() - static_cast<std::size_t>(failures) << "/" << cases.size()
            << " cases identical\n";
  return failures == 0 ? 0 : 1;
}
