#include "harness/parallel.hpp"

#include <stdexcept>

namespace lowsense {

unsigned thread_count_flag(const Args& args, const std::string& key) {
  const std::uint64_t n = args.u64(key, 1);
  if (n > ParallelExecutor::kMaxThreads) {
    const std::string max = std::to_string(ParallelExecutor::kMaxThreads);
    throw std::invalid_argument("--" + key + "=" + std::to_string(n) + ": must be <= " + max);
  }
  return ParallelExecutor::resolve_threads(static_cast<unsigned>(n));
}

Replicates replicate_parallel(const Scenario& scenario, int reps, ParallelExecutor* pool,
                              std::uint64_t base_seed) {
  if (reps <= 0) return {};
  if (pool == nullptr || pool->thread_count() <= 1 || reps == 1) {
    return replicate(scenario, reps, base_seed);
  }

  Replicates out;
  // Each replicate owns slot i exclusively; no result-side locking.
  out.runs = parallel_map(pool, static_cast<std::size_t>(reps), [&](std::size_t i) {
    return run_scenario(scenario, base_seed + static_cast<std::uint64_t>(i));
  });
  return out;
}

}  // namespace lowsense
