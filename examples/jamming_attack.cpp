// Reactive jamming attack demo (§1.3).
//
// An attacker with instantaneous reaction time watches the channel and
// jams exactly the slots in which a targeted victim transmits, spending a
// bounded jam budget. Against binary exponential backoff this is
// devastating: every jam doubles the victim's window, so Θ(ln T) jams
// buy the attacker ~T slots of victim starvation. Against LOW-SENSING
// BACKOFF, the victim's back-on loop (listen, hear silence, shrink)
// repairs the damage at multiplicative speed, so the attacker pays
// roughly linearly for each slot of delay it inflicts.
//
//   ./jamming_attack [--budget=16] [--seed=17] [--threads=T]
#include <cmath>
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

struct AttackOutcome {
  double completion_slots = 0.0;
  double victim_sends = 0.0;
  bool finished = true;
};

AttackOutcome attack(const std::string& proto, std::uint64_t budget, std::uint64_t seed) {
  struct VictimProbe final : Observer {
    double sends = 0.0;
    void on_departure(Slot, PacketId id, Slot, std::uint64_t, std::uint64_t s, double) override {
      if (id == 0) sends = static_cast<double>(s);
    }
  };

  Scenario s;
  s.protocol = [proto] { return make_protocol(proto); };
  s.arrivals = [](std::uint64_t) { return std::make_unique<BatchArrivals>(1); };
  s.jammer = [budget](std::uint64_t) { return std::make_unique<ReactiveVictimJammer>(0, budget); };
  s.config.max_active_slots = 50000000ULL;

  VictimProbe probe;
  const RunResult r = run_scenario(s, seed, {&probe});
  AttackOutcome out;
  out.completion_slots = static_cast<double>(r.counters.active_slots);
  out.victim_sends = probe.sends;
  out.finished = r.drained;
  return out;
}

}  // namespace

int main(int argc, char** argv) try {
  const Args args(argc, argv);
  const std::uint64_t max_budget = args.u64("budget", 16);
  const std::uint64_t seed = args.u64("seed", 17);
  const unsigned threads = thread_count_flag(args, "threads");
  for (const auto& k : args.unknown_keys()) {
    std::fprintf(stderr, "unknown flag %s\n", k.c_str());
    std::fprintf(stderr, "usage: jamming_attack [--budget=B] [--seed=S] [--threads=T]\n");
    return 2;
  }

  std::printf("Reactive attacker vs a single victim packet. The attacker jams exactly\n"
              "the victim's transmissions until its budget runs out.\n\n");
  std::printf("%8s | %22s | %22s\n", "jam", "binary-exponential", "low-sensing");
  std::printf("%8s | %10s %11s | %10s %11s\n", "budget", "slots", "sends", "slots", "sends");
  std::printf("---------+------------------------+-----------------------\n");

  std::vector<std::uint64_t> budgets;
  for (std::uint64_t budget = 1; budget <= max_budget; budget *= 2) budgets.push_back(budget);

  // Both protocols for every budget rung, fanned out over the pool;
  // results come back in rung order, so the table is identical to the
  // serial run's.
  struct Rung {
    AttackOutcome beb, lsb;
  };
  const std::vector<Rung> rungs = parallel_map(threads, budgets.size(), [&](std::size_t i) {
    return Rung{attack("binary-exponential", budgets[i], seed),
                attack("low-sensing", budgets[i], seed)};
  });

  for (std::size_t i = 0; i < budgets.size(); ++i) {
    const auto& [beb, lsb] = rungs[i];
    std::printf("%8llu | %10.0f%1s %10.0f | %10.0f%1s %10.0f\n",
                static_cast<unsigned long long>(budgets[i]), beb.completion_slots,
                beb.finished ? "" : "+", beb.victim_sends, lsb.completion_slots,
                lsb.finished ? "" : "+", lsb.victim_sends);
  }

  std::printf("\n('+' = horizon hit before the victim got through.)\n");
  std::printf("\nBEB's completion time roughly DOUBLES with every extra jam — the §1.3\n"
              "observation that a reactive adversary drives exponential backoff to\n"
              "O(1/T) throughput using only Θ(ln T) jams. The low-sensing victim keeps\n"
              "listening cheaply, backs on after the attack, and finishes in time\n"
              "closer to linear in the budget.\n");
  return 0;
} catch (const std::invalid_argument& e) {
  // A malformed flag value (Args) or engine name: a usage error.
  std::fprintf(stderr, "%s\n", e.what());
  return 2;
}
