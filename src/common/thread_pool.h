// Worker pool mirroring the paper's ThreadPoolExecutor usage (Algorithm 2
// launches T SendWorker threads per node through one). Resizable at runtime:
// the adaptive pool governor (common/pool_governor.h) steps the worker count
// from the stall counters both staged engines export.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace emlio {

/// The ONE auto pool-width rule, shared by the engines' static sizing
/// (DaemonConfig::pool_threads / ReceiverConfig::decode_threads = 0), the
/// governor's auto max bound (adaptive_max_threads = 0), and the eval
/// models' converged-width model: `cores` (0 = this host's hardware
/// concurrency) clamped to [2, 8].
inline std::size_t auto_pool_width(std::size_t cores = 0) {
  if (cores == 0) cores = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(cores, 2, 8);
}

/// FIFO thread pool. Tasks are std::function<void()>; submit() also offers a
/// future-returning overload for joins with results.
///
/// Resizing: set_target_threads() may be called from any thread, at any time,
/// concurrently with post()/wait_idle(). Growth spawns workers immediately;
/// shrink is cooperative — a surplus worker retires at the moment it would
/// otherwise park on an empty queue (retire-on-park), so queued tasks are
/// never abandoned and a busy pool only narrows as the load lets it.
class ThreadPool {
 public:
  /// Spawn `num_threads` workers (at least 1).
  explicit ThreadPool(std::size_t num_threads);

  /// Drains outstanding tasks, then joins all workers (parked retirees too).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a fire-and-forget task.
  void post(std::function<void()> task);

  /// Enqueue a task and get a future for its result.
  template <typename F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> fut = task->get_future();
    post([task] { (*task)(); });
    return fut;
  }

  /// Block until every queued task has finished executing.
  void wait_idle();

  /// Resize the pool to `n` workers (clamped to at least 1). Growth is
  /// immediate; shrink retires surplus workers as they park. Also joins any
  /// previously-retired worker threads, so handles never accumulate.
  void set_target_threads(std::size_t n);

  /// The commanded size (what set_target_threads last asked for).
  std::size_t target_threads() const;

  /// Workers currently live (lags target_threads() while a shrink waits for
  /// busy workers to park).
  std::size_t thread_count() const;

 private:
  void worker_loop(std::uint64_t id);
  void spawn_one_locked() EMLIO_REQUIRES(mutex_);

  mutable Mutex mutex_;
  CondVar cv_;
  CondVar idle_cv_;
  std::deque<std::function<void()>> tasks_ EMLIO_GUARDED_BY(mutex_);
  /// Every spawned worker, keyed by id — live ones plus retirees whose
  /// handles await joining (a worker cannot join itself; set_target_threads
  /// and the destructor reap them). Handles are MOVED OUT under the lock and
  /// joined outside it, so a join never blocks the pool.
  std::map<std::uint64_t, std::thread> workers_ EMLIO_GUARDED_BY(mutex_);
  std::vector<std::uint64_t> retired_ EMLIO_GUARDED_BY(mutex_);  ///< loops returned
  std::uint64_t next_id_ EMLIO_GUARDED_BY(mutex_) = 0;
  std::size_t live_ EMLIO_GUARDED_BY(mutex_) = 0;    ///< workers not yet retired
  std::size_t target_ EMLIO_GUARDED_BY(mutex_) = 0;  ///< commanded size
  std::size_t active_ EMLIO_GUARDED_BY(mutex_) = 0;  ///< workers running a task
  bool stop_ EMLIO_GUARDED_BY(mutex_) = false;
};

}  // namespace emlio
