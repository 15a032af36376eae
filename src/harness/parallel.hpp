// Multithreaded replication executor. `replicate_parallel` fans the
// replicates of a scenario out over a fixed thread pool while keeping the
// exact serial semantics: replicate i always runs with seed base_seed+i
// and results come back in seed order, so serial and parallel Replicates
// are bit-identical for any thread count.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <vector>

#include "core/executor.hpp"
#include "harness/experiment.hpp"

namespace lowsense {

/// Reads a worker-count flag (--threads=, --shards=) and resolves it with
/// ParallelExecutor::resolve_threads (0 = every core). Throws
/// std::invalid_argument on a malformed value or one above
/// ParallelExecutor::kMaxThreads.
unsigned thread_count_flag(const Args& args, const std::string& key);

/// Parallel counterpart of `replicate`: runs `reps` replicates with seeds
/// base_seed, base_seed+1, ... on `threads` workers. Replicate i writes
/// slot i of the result vector, so ordering (and therefore every summary)
/// is deterministic regardless of scheduling; threads <= 1 degenerates to
/// the serial path. The scenario's factory lambdas are invoked
/// concurrently and must be re-entrant (the stock benches' factories are:
/// they only read captured values).
Replicates replicate_parallel(const Scenario& scenario, int reps, unsigned threads,
                              std::uint64_t base_seed = 1);

/// Same, on a caller-owned pool (the suite runner keeps one pool alive
/// across a bench's whole sweep instead of respawning threads per cell).
/// `pool` may be nullptr for the serial path.
Replicates replicate_parallel(const Scenario& scenario, int reps, ParallelExecutor* pool,
                              std::uint64_t base_seed = 1);

/// Deterministic ordered fan-out of arbitrary per-index work: returns
/// {fn(0), fn(1), ..., fn(count-1)} with slot i always holding fn(i),
/// regardless of scheduling — the building block the custom-loop benches
/// (per-replicate observers, betting games) use to go parallel while
/// keeping serial output byte-identical. `fn` must be re-entrant and R
/// default-constructible. With a null pool the loop runs inline.
template <typename Fn>
auto parallel_map(ParallelExecutor* pool, std::size_t count, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{}))> {
  using R = decltype(fn(std::size_t{}));
  // vector<bool> packs adjacent slots into one byte, so concurrent
  // out[i] = fn(i) writes would race; return int/char flags instead.
  static_assert(!std::is_same_v<R, bool>,
                "parallel_map cannot return bool (vector<bool> slots share bytes)");
  std::vector<R> out(count);
  if (pool == nullptr || pool->thread_count() <= 1 || count <= 1) {
    for (std::size_t i = 0; i < count; ++i) out[i] = fn(i);
    return out;
  }
  for (std::size_t i = 0; i < count; ++i) {
    pool->submit([&out, &fn, i] { out[i] = fn(i); });
  }
  pool->wait();
  return out;
}

/// Convenience overload owning a transient pool of `threads` workers.
template <typename Fn>
auto parallel_map(unsigned threads, std::size_t count, Fn&& fn)
    -> std::vector<decltype(fn(std::size_t{}))> {
  if (threads <= 1 || count <= 1) return parallel_map(nullptr, count, std::forward<Fn>(fn));
  ParallelExecutor pool(std::min<unsigned>(threads, static_cast<unsigned>(count)));
  return parallel_map(&pool, count, std::forward<Fn>(fn));
}

}  // namespace lowsense
