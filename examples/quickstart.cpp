// Quickstart: run LOW-SENSING BACKOFF on a batch of contending packets and
// print the two headline numbers from the paper — constant throughput and
// polylog channel accesses per packet.
//
//   ./quickstart [--n=1000] [--seed=7] [--protocol=low-sensing] [--engine=event|slot]
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "harness/experiment.hpp"
#include "protocols/registry.hpp"

using namespace lowsense;

int main(int argc, char** argv) try {
  const Args args(argc, argv);
  const std::uint64_t n = args.u64("n", 1000);
  const std::uint64_t seed = args.u64("seed", 7);
  const std::string proto = args.str("protocol", "low-sensing");
  const std::string engine = args.str("engine", "event");
  for (const auto& k : args.unknown_keys()) {
    std::fprintf(stderr, "unknown flag %s\n", k.c_str());
    std::fprintf(stderr, "usage: quickstart [--n=N] [--seed=S] [--protocol=NAME] "
                         "[--engine=event|slot]\n");
    return 2;
  }

  Scenario scenario;
  scenario.name = "quickstart";
  scenario.protocol = [&] { return make_protocol(proto); };
  scenario.arrivals = [&](std::uint64_t) { return std::make_unique<BatchArrivals>(n); };
  scenario.engine = parse_engine(engine);

  std::printf("lowsense quickstart: %llu packets arrive at once, protocol = %s\n",
              static_cast<unsigned long long>(n), proto.c_str());

  const RunResult r = run_scenario(scenario, seed);

  std::printf("  drained           : %s\n", r.drained ? "yes" : "NO");
  std::printf("  active slots      : %llu  (makespan)\n",
              static_cast<unsigned long long>(r.counters.active_slots));
  std::printf("  throughput        : %.3f   (paper: Theta(1) for low-sensing)\n", r.throughput());
  std::printf("  mean accesses/pkt : %.1f\n", r.mean_accesses());
  std::printf("  max accesses/pkt  : %llu   (paper: O(ln^4 N) = O(%.0f) here)\n",
              static_cast<unsigned long long>(r.max_accesses),
              std::pow(std::log(static_cast<double>(n)), 4));
  std::printf("  mean sends/pkt    : %.2f\n", r.send_stats.mean());
  std::printf("  max window seen   : %.0f\n", r.max_window_seen);
  return r.drained ? 0 : 1;
} catch (const std::invalid_argument& e) {
  // A malformed flag value (Args) or engine name: a usage error.
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
