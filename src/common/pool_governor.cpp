#include "common/pool_governor.h"

#include <algorithm>

#include "common/log.h"

namespace emlio {

namespace {
// Dead band: act only when one signal owns at least this share of the
// window's stall events. Must be > 0.5 or grow and shrink could both
// qualify; the (kDominance, 1 - kDominance) gap is the hysteresis that keeps
// a balanced pipeline from flapping.
constexpr double kDominance = 0.65;
// Windows with fewer total stall events than this hold: an idle or
// perfectly balanced window is not evidence to resize on.
constexpr std::uint64_t kMinEvents = 4;
// Whole windows to sit out after a resize, so the stepped width shows up in
// the counters before the next decision.
constexpr std::uint64_t kCooldownWindows = 1;
}  // namespace

PoolGovernorConfig PoolGovernorConfig::from_knobs(std::size_t min_threads,
                                                  std::size_t max_threads,
                                                  std::uint64_t interval_ms) {
  PoolGovernorConfig gc;
  gc.min_threads = std::max<std::size_t>(min_threads, 1);
  gc.max_threads = max_threads ? max_threads : auto_pool_width();
  gc.max_threads = std::max(gc.max_threads, gc.min_threads);
  gc.interval = std::chrono::milliseconds(std::max<std::uint64_t>(interval_ms, 1));
  return gc;
}

PoolGovernor::PoolGovernor(std::string name, ThreadPool& pool,
                           const std::atomic<std::uint64_t>& grow_signal,
                           const std::atomic<std::uint64_t>& shrink_signal,
                           PoolGovernorConfig config)
    // The counter-pair form is the sampler form with the window diffing
    // synthesized here: remember each total, return the per-window deltas.
    : PoolGovernor(std::move(name), pool,
                   [&grow_signal, &shrink_signal,
                    last_grow = grow_signal.load(std::memory_order_relaxed),
                    last_shrink = shrink_signal.load(std::memory_order_relaxed)]() mutable {
                     Window w;
                     std::uint64_t grow_now = grow_signal.load(std::memory_order_relaxed);
                     std::uint64_t shrink_now = shrink_signal.load(std::memory_order_relaxed);
                     w.grow = grow_now - last_grow;
                     w.shrink = shrink_now - last_shrink;
                     last_grow = grow_now;
                     last_shrink = shrink_now;
                     return w;
                   },
                   config) {}

PoolGovernor::PoolGovernor(std::string name, ThreadPool& pool, WindowSampler sampler,
                           PoolGovernorConfig config)
    : name_(std::move(name)), pool_(pool), sampler_(std::move(sampler)), config_(config) {
  // Taking over sizing means enforcing the documented contract from the
  // first instant: a pool started outside [min, max] is brought into the
  // band now, as initialization (not counted or logged as a resize).
  std::size_t lo = std::max<std::size_t>(config_.min_threads, 1);
  std::size_t hi = std::max(config_.max_threads, lo);
  std::size_t width = std::clamp(pool_.target_threads(), lo, hi);
  if (width != pool_.target_threads()) pool_.set_target_threads(width);
  current_.store(width, std::memory_order_relaxed);
  peak_.store(width, std::memory_order_relaxed);
  MutexLock lock(mutex_);
  thread_ = std::thread([this] { run(); });
}

PoolGovernor::~PoolGovernor() { stop(); }

void PoolGovernor::stop() {
  std::thread control;
  {
    MutexLock lock(mutex_);
    stopped_ = true;
    control = std::move(thread_);  // only the first stop() gets the handle
  }
  cv_.notify_all();
  if (control.joinable()) control.join();
}

PoolGovernor::Stats PoolGovernor::stats() const {
  Stats s;
  s.resizes = resizes_.load(std::memory_order_relaxed);
  s.grows = grows_.load(std::memory_order_relaxed);
  s.shrinks = shrinks_.load(std::memory_order_relaxed);
  s.threads_current = current_.load(std::memory_order_relaxed);
  // The two counters are independent relaxed atomics, so a snapshot racing
  // a grow could pair the new current with the stale peak; restore the
  // peak >= current invariant at read time instead of fencing the hot loop.
  s.threads_peak = std::max(peak_.load(std::memory_order_relaxed), s.threads_current);
  return s;
}

void PoolGovernor::run() {
  std::uint64_t cooldown = 0;

  for (;;) {
    {
      // One control interval: sleep to the deadline, waking early only for
      // stop(). The sampler runs outside the lock — it reads engine state
      // with its own synchronization.
      MutexLock lock(mutex_);
      const auto deadline = std::chrono::steady_clock::now() + config_.interval;
      while (!stopped_) {
        if (cv_.wait_until(mutex_, deadline)) break;  // interval elapsed
      }
      if (stopped_) return;
    }

    Window window = sampler_();
    std::uint64_t grow_delta = window.grow;
    std::uint64_t shrink_delta = window.shrink;

    if (cooldown > 0) {
      --cooldown;
      continue;
    }
    std::uint64_t total = grow_delta + shrink_delta;
    if (total >= kMinEvents) {
      double grow_share = static_cast<double>(grow_delta) / static_cast<double>(total);
      std::size_t lo = std::max<std::size_t>(config_.min_threads, 1);
      std::size_t hi = std::max(config_.max_threads, lo);
      std::size_t width = current_.load(std::memory_order_relaxed);
      // Strictly ±1 per decision, and only in the dominant signal's
      // direction (the constructor already brought the starting width into
      // [lo, hi], so stepping can never leave the band).
      std::size_t next = width;
      if (grow_share >= kDominance) {
        if (width < hi) next = width + 1;
      } else if (1.0 - grow_share >= kDominance) {
        if (width > lo) next = width - 1;
      }
      if (next != width) {
        pool_.set_target_threads(next);
        if (next > peak_.load(std::memory_order_relaxed)) {
          peak_.store(next, std::memory_order_relaxed);
        }
        current_.store(next, std::memory_order_relaxed);
        resizes_.fetch_add(1, std::memory_order_relaxed);
        if (next > width) {
          grows_.fetch_add(1, std::memory_order_relaxed);
        } else {
          shrinks_.fetch_add(1, std::memory_order_relaxed);
        }
        cooldown = kCooldownWindows;
        log::info("governor ", name_, ": ", next > width ? "grew" : "shrank", " pool ", width,
                  " -> ", next, " (window: ", grow_delta, " grow / ", shrink_delta,
                  " shrink stalls)");
      }
    }
  }
}

}  // namespace emlio
