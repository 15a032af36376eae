// Battery-powered sensor network (the paper's energy motivation: wireless
// sensor networks [107] and duty-cycle protocols [115, 123, 163]).
//
// A field of sensors wakes periodically and uploads readings over a
// shared channel. Each channel access — listen or send — costs radio
// energy; sleeping is nearly free. This example converts the simulator's
// access counts into battery-life estimates using published radio-budget
// shapes (a CC2420-class radio burns ~the same tens of mW whether RX or
// TX; sleeping is ~4-5 orders of magnitude cheaper), and contrasts
// LOW-SENSING BACKOFF with the full-sensing multiplicative-weights
// protocol that listens in every slot.
//
//   ./sensor_network [--sensors=2000] [--rounds=20] [--seed=13] [--threads=T]
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/parallel.hpp"
#include "protocols/registry.hpp"

using namespace lowsense;

namespace {

// Radio energy model (CC2420-class, normalized to "1.0 per active slot").
// RX and TX draws are within ~10% of each other on such radios; sleep
// current is ~5 orders of magnitude below active, so we charge:
constexpr double kCostPerAccess = 1.0;     // listen or send for one slot
constexpr double kCostPerSleepSlot = 2e-5; // idle slot with radio off

struct Outcome {
  double mean_energy = 0.0;   // per sensor per round, in slot-energy units
  double worst_energy = 0.0;
  double tp = 0.0;
  bool drained = true;
};

Outcome measure(const std::string& proto, std::uint64_t sensors, std::uint64_t rounds,
                std::uint64_t seed) {
  // Each "round": every sensor has one reading to upload; rounds are
  // spaced far enough apart that the system drains in between (classic
  // duty-cycle operation). A batch per round == repeated batch instance.
  Scenario s;
  s.protocol = [proto] { return make_protocol(proto); };
  s.arrivals = [sensors, rounds](std::uint64_t) {
    std::vector<ArrivalBurst> bursts;
    Slot t = 0;
    for (std::uint64_t r = 0; r < rounds; ++r) {
      bursts.push_back({t, sensors});
      t += 400 * sensors;  // generous inter-round spacing
    }
    return std::make_unique<ScheduleArrivals>(bursts);
  };
  s.config.max_active_slots = 600ULL * sensors * rounds;

  const RunResult r = run_scenario(s, seed);
  Outcome out;
  out.drained = r.drained;
  out.tp = r.throughput();
  const double lifetime = r.latency_stats.mean();  // active slots per packet
  out.mean_energy =
      r.mean_accesses() * kCostPerAccess + (lifetime - r.mean_accesses()) * kCostPerSleepSlot;
  out.worst_energy = static_cast<double>(r.max_accesses) * kCostPerAccess +
                     r.latency_stats.max() * kCostPerSleepSlot;
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  const Args args(argc, argv);
  const std::uint64_t sensors = args.u64("sensors", 2000);
  const std::uint64_t rounds = args.u64("rounds", 10);
  const std::uint64_t seed = args.u64("seed", 13);
  const unsigned threads = thread_count_flag(args, "threads");
  for (const auto& k : args.unknown_keys()) {
    std::fprintf(stderr, "unknown flag %s\n", k.c_str());
    std::fprintf(stderr,
                 "usage: sensor_network [--sensors=N] [--rounds=R] [--seed=S] [--threads=T]\n");
    return 2;
  }

  std::printf("Sensor field: %llu sensors x %llu upload rounds over a shared channel.\n"
              "Energy unit = one slot of radio-on time (listen or send).\n\n",
              static_cast<unsigned long long>(sensors),
              static_cast<unsigned long long>(rounds));

  std::printf("%-18s %14s %14s %10s %8s\n", "protocol", "energy/upload", "worst sensor",
              "throughput", "drained");
  const std::vector<std::string> protos = {"low-sensing", "mw-full-sensing",
                                           "binary-exponential"};
  const std::vector<Outcome> outcomes = parallel_map(threads, protos.size(), [&](std::size_t i) {
    return measure(protos[i], sensors, rounds, seed);
  });
  Outcome lsb, mw;
  for (std::size_t i = 0; i < protos.size(); ++i) {
    const Outcome& o = outcomes[i];
    if (protos[i] == "low-sensing") lsb = o;
    if (protos[i] == "mw-full-sensing") mw = o;
    std::printf("%-18s %14.1f %14.1f %10.3f %8s\n", protos[i].c_str(), o.mean_energy,
                o.worst_energy, o.tp, o.drained ? "yes" : "NO");
  }

  if (mw.mean_energy > 0.0 && lsb.mean_energy > 0.0) {
    const double factor = mw.mean_energy / lsb.mean_energy;
    std::printf("\nBattery impact: per upload, low-sensing spends %.0fx less radio-on time\n"
                "than the every-slot listener at identical throughput. On a duty-cycled\n"
                "node where the radio dominates the budget, battery life scales by ~that\n"
                "factor during contention periods.\n",
                factor);
  }
  std::printf("\n(binary-exponential is cheap per packet but its throughput decays with\n"
              "the field size — it trades the network's completion time away; see T1.)\n");
  return 0;
} catch (const std::invalid_argument& e) {
  // A malformed flag value (Args) or engine name: a usage error.
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
