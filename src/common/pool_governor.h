// Shared adaptive pool governor — the "one controller" ROADMAP names for
// both staged engines.
//
// Both ends of the data plane run a ThreadPool between two bounded queues and
// already export a pair of opposing stall counters that say which stage is
// starving:
//
//   daemon    grow:  sender_stalls     (wire found the prefetch queue empty —
//                                       the encode pool is the bottleneck)
//             shrink: enqueue_stalls   (encode found the queue full — the
//                                       pool outran the wire; width is waste)
//   receiver  grow:  decode_stalls     (ingest waited on a full decode
//                                       window — decode is the bottleneck)
//             shrink: resequence_stalls (completions pile up out of order —
//                                       width beyond what ordering can use)
//
// PoolGovernor samples the two counters on a fixed interval, computes each
// signal's share of the window's stall events, and steps the pool ±1 within
// [min, max]. Three hysteresis guards keep it from flapping: a dominance
// dead band (neither signal owning >= 65 % of the window holds the size), a
// minimum event count (quiet windows hold), and a cooldown of one whole
// window after every resize (the new width accumulates fresh evidence
// before the next decision). Resizing itself is ThreadPool::
// set_target_threads — grow spawns, shrink retires workers as they park —
// so delivered streams stay byte-identical and identically ordered at every
// width.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "common/thread_pool.h"

namespace emlio {

struct PoolGovernorConfig {
  std::size_t min_threads = 1;
  std::size_t max_threads = 8;
  /// Control period — how often the stall window is evaluated.
  std::chrono::milliseconds interval{20};

  /// Build a config from the per-engine knobs, applying the shared rules
  /// once: min clamped to >= 1, max 0 = auto (hardware concurrency clamped
  /// to [2, 8] — the same rule the engines' static auto sizing uses),
  /// max >= min, interval >= 1 ms.
  static PoolGovernorConfig from_knobs(std::size_t min_threads, std::size_t max_threads,
                                       std::uint64_t interval_ms);
};

/// Periodic controller that owns the sizing of one ThreadPool. Reads two
/// externally-owned relaxed counters (they must outlive the governor, as
/// must the pool) and steps the pool within [min_threads, max_threads].
/// stop() (or destruction) halts the control thread before touching the pool
/// again — destroy the governor before the pool it steers.
class PoolGovernor {
 public:
  struct Stats {
    std::uint64_t resizes = 0;  ///< grows + shrinks applied
    std::uint64_t grows = 0;
    std::uint64_t shrinks = 0;
    std::size_t threads_current = 0;  ///< commanded width right now
    std::size_t threads_peak = 0;     ///< widest the pool has been
  };

  /// One control window's worth of evidence, as deltas (not running
  /// totals): `grow` events say the pool is the bottleneck, `shrink` events
  /// that its width is waste.
  struct Window {
    std::uint64_t grow = 0;
    std::uint64_t shrink = 0;
  };
  /// Called once per control interval from the governor thread. Engines
  /// with per-lane accounting weigh lanes in or out here — e.g. the daemon
  /// drops the shrink votes of closed or zero-delivery lanes, so one cold
  /// sink cannot shrink the pool the healthy lanes still need.
  using WindowSampler = std::function<Window()>;

  /// `grow_signal` dominating a window grows `pool`; `shrink_signal`
  /// dominating shrinks it. `name` labels the one log line per resize.
  /// (Counter-pair form: the governor samples the two running totals and
  /// diffs them per window itself.)
  PoolGovernor(std::string name, ThreadPool& pool,
               const std::atomic<std::uint64_t>& grow_signal,
               const std::atomic<std::uint64_t>& shrink_signal, PoolGovernorConfig config);

  /// Sampler form: `sampler` is invoked once per interval and returns that
  /// window's grow/shrink deltas directly. It must stay callable until
  /// stop()/destruction, and everything it reads must outlive the governor.
  PoolGovernor(std::string name, ThreadPool& pool, WindowSampler sampler,
               PoolGovernorConfig config);

  ~PoolGovernor();

  PoolGovernor(const PoolGovernor&) = delete;
  PoolGovernor& operator=(const PoolGovernor&) = delete;

  /// Halt the control thread (joins it). Idempotent; called by the dtor.
  void stop();

  Stats stats() const;

 private:
  void run();

  const std::string name_;
  ThreadPool& pool_;
  WindowSampler sampler_;  ///< per-window evidence source (both ctors)
  const PoolGovernorConfig config_;

  std::atomic<std::uint64_t> resizes_{0};
  std::atomic<std::uint64_t> grows_{0};
  std::atomic<std::uint64_t> shrinks_{0};
  std::atomic<std::size_t> current_{0};
  std::atomic<std::size_t> peak_{0};

  Mutex mutex_;
  CondVar cv_;
  bool stopped_ EMLIO_GUARDED_BY(mutex_) = false;
  /// Control-thread handle; moved out (under the lock) by the first stop()
  /// and joined outside it.
  std::thread thread_ EMLIO_GUARDED_BY(mutex_);
};

}  // namespace emlio
