// Fixed-size thread pool shared by every parallel layer: the harness fans
// replicates and benches' per-index work over it (harness/parallel.hpp),
// and the simulation core drives the sharded slot-resolve phases through
// one (sim/sim_core.hpp). It lives in core/ so that sim/ can use it
// without depending on the harness layer.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lowsense {

/// Fixed-size thread pool. Tasks are arbitrary thunks; `wait()` blocks
/// until every submitted task has finished. Reusable across batches.
///
/// With `spin_us` > 0, idle workers poll for new work for that many
/// microseconds before blocking on the condition variable, and `wait()`
/// polls for completion the same way. This trims the futex wakeup
/// (microseconds per fork-join) off the hot path — what the sharded slot
/// resolve needs, since it forks twice per heavy slot — at the price of
/// burning cycles while spinning, so it should only be enabled when the
/// pool's threads have real cores to themselves (SimCore checks). The
/// default 0 keeps the fully blocking behavior for replicate-level pools.
class ParallelExecutor {
 public:
  /// Spawns `threads` workers (clamped to >= 1).
  explicit ParallelExecutor(unsigned threads, unsigned spin_us = 0);
  ~ParallelExecutor();

  ParallelExecutor(const ParallelExecutor&) = delete;
  ParallelExecutor& operator=(const ParallelExecutor&) = delete;

  unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueues a task for execution on a worker thread. Tasks are
  /// submitted from one thread at a time (all current callers).
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is executing. Rethrows
  /// the first exception raised by any task since the last wait().
  void wait();

  /// std::thread::hardware_concurrency(), clamped to >= 1.
  static unsigned default_threads() noexcept;

  /// True when called from a ParallelExecutor worker thread (any pool).
  /// Lets nested layers detect oversubscription: a SimCore constructed
  /// inside a replicate worker keeps its shard pool fully blocking,
  /// since the replicate pool already claims the cores spinning would
  /// burn.
  static bool on_worker_thread() noexcept;

  /// Ceiling on a requested worker or shard count (--threads=, --shards=,
  /// a pack's `shards`): larger values are input errors, not pools.
  static constexpr unsigned kMaxThreads = 4096;

  /// Maps a --threads=/--shards= flag value to a worker count: 0 means
  /// "use every core", anything else is taken literally.
  static unsigned resolve_threads(unsigned requested) noexcept {
    return requested == 0 ? default_threads() : requested;
  }

 private:
  void worker_loop();
  /// Pops one task if immediately available (non-blocking).
  bool try_take(std::function<void()>* task);

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  std::exception_ptr first_error_;
  std::atomic<bool> stop_{false};

  // Lock-free signals for the spin fast paths. queued_/sleepers_ are
  // only WRITTEN under mu_ (reads may race, and only cause a harmless
  // extra try_take / missed-spin); submitted_/completed_ pair up so
  // wait() can detect an all-done batch without touching the mutex.
  unsigned spin_us_;
  std::atomic<std::uint64_t> queued_{0};
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<int> sleepers_{0};
};

}  // namespace lowsense
