// Fixed-size thread pool behind the one parallel layer: the harness fans
// replicates and benches' per-index work over it (harness/parallel.hpp).
// A single run is serial (sim/sim_core.hpp).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lowsense {

/// Fixed-size thread pool. Tasks are arbitrary thunks; `wait()` blocks
/// until every submitted task has finished. Reusable across batches.
class ParallelExecutor {
 public:
  /// Spawns `threads` workers (clamped to >= 1).
  explicit ParallelExecutor(unsigned threads);
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

  /// Ceiling on a requested worker count (--threads=): larger values are
  /// input errors, not pools.
  static constexpr unsigned kMaxThreads = 4096;

  /// Maps a --threads= flag value to a worker count: 0 means "use every
  /// core", anything else is taken literally.
  static unsigned resolve_threads(unsigned requested) noexcept {
    return requested == 0 ? default_threads() : requested;
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> tasks_;
  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::size_t in_flight_ = 0;
  std::exception_ptr first_error_;
  bool stop_ = false;  ///< guarded by mu_
};

}  // namespace lowsense
