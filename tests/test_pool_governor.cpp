// Tests for the resizable ThreadPool and the shared adaptive pool governor
// (common/pool_governor.h). These run in the ThreadSanitizer CI job: every
// scenario here races resizes against posts, wait_idle and destruction on
// purpose.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "common/pool_governor.h"
#include "common/thread_pool.h"

namespace emlio {
namespace {

using namespace std::chrono_literals;

/// Poll `pred` until true or the deadline passes.
template <typename Pred>
bool eventually(Pred&& pred, std::chrono::milliseconds timeout = 5s) {
  auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(1ms);
  }
  return true;
}

// ------------------------------------------------------- resizable ThreadPool

TEST(ThreadPoolResize, GrowSpawnsWorkersImmediately) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  EXPECT_EQ(pool.target_threads(), 1u);
  pool.set_target_threads(4);
  EXPECT_EQ(pool.target_threads(), 4u);
  EXPECT_EQ(pool.thread_count(), 4u);  // growth is immediate, not cooperative
}

TEST(ThreadPoolResize, GrowUnderLoadRunsEveryTask) {
  ThreadPool pool(1);
  std::atomic<int> done{0};
  constexpr int kTasks = 200;
  for (int i = 0; i < kTasks; ++i) {
    pool.post([&] {
      std::this_thread::sleep_for(100us);
      done.fetch_add(1, std::memory_order_relaxed);
    });
    if (i == kTasks / 4) pool.set_target_threads(4);
    if (i == kTasks / 2) pool.set_target_threads(6);
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), kTasks);
  EXPECT_EQ(pool.target_threads(), 6u);
}

TEST(ThreadPoolResize, ShrinkToOneWhileTasksQueuedLosesNothing) {
  ThreadPool pool(4);
  std::atomic<int> done{0};
  constexpr int kTasks = 120;
  for (int i = 0; i < kTasks; ++i) {
    pool.post([&] {
      std::this_thread::sleep_for(200us);
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  pool.set_target_threads(1);  // queue is still deep: every task must run
  pool.wait_idle();
  EXPECT_EQ(done.load(), kTasks);
  // Retire-on-park: with the queue drained the surplus workers park and
  // leave; the pool converges to exactly one live worker.
  EXPECT_TRUE(eventually([&] { return pool.thread_count() == 1; }))
      << "live workers: " << pool.thread_count();
  // The shrunken pool still works.
  std::atomic<bool> ran{false};
  pool.post([&] { ran.store(true, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolResize, WaitIdleRacingResizes) {
  ThreadPool pool(2);
  std::atomic<bool> stop{false};
  std::atomic<int> done{0};
  std::thread resizer([&] {
    std::size_t widths[] = {1, 4, 2, 6, 1, 3};
    for (int i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      pool.set_target_threads(widths[i % 6]);
      std::this_thread::sleep_for(500us);
    }
  });
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 25; ++i) {
      pool.post([&] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();  // must return despite concurrent grows and shrinks
    EXPECT_EQ(done.load(), (round + 1) * 25);
  }
  stop.store(true, std::memory_order_relaxed);
  resizer.join();
}

TEST(ThreadPoolResize, DestructorAfterShrinkJoinsParkedRetirees) {
  // Shrink, let retirees park (their handles wait in the pool), then destroy
  // without another resize: the destructor must join every thread, retired
  // or live, without deadlock or leak (TSan/ASan verify).
  for (int round = 0; round < 10; ++round) {
    ThreadPool pool(6);
    std::atomic<int> done{0};
    for (int i = 0; i < 30; ++i) {
      pool.post([&] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.set_target_threads(1);
    if (round % 2 == 0) pool.wait_idle();
    // Destructor runs here, possibly with tasks still queued (odd rounds) —
    // it drains them first, so the count always lands.
  }
}

TEST(ThreadPoolResize, RepeatedResizeReapsRetiredHandles) {
  // Oscillate hard; every shrink's retirees must be reaped by a later
  // resize or the destructor. Mostly an ASan/TSan leak/race probe.
  ThreadPool pool(1);
  std::atomic<int> done{0};
  for (int i = 0; i < 40; ++i) {
    pool.set_target_threads(i % 2 ? 5 : 1);
    pool.post([&] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 40);
}

TEST(ThreadPoolResize, ZeroTargetClampedToOne) {
  ThreadPool pool(2);
  pool.set_target_threads(0);
  EXPECT_EQ(pool.target_threads(), 1u);
  std::atomic<bool> ran{false};
  pool.post([&] { ran.store(true, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_TRUE(ran.load());
}

// ------------------------------------------------------------- PoolGovernor

PoolGovernorConfig fast_config(std::size_t min_threads, std::size_t max_threads) {
  PoolGovernorConfig gc;
  gc.min_threads = min_threads;
  gc.max_threads = max_threads;
  gc.interval = std::chrono::milliseconds(1);
  return gc;
}

/// Bump `counter` every few hundred microseconds until stopped — a synthetic
/// stall signal strong enough to dominate every control window.
class SignalPump {
 public:
  explicit SignalPump(std::atomic<std::uint64_t>& counter)
      : thread_([this, &counter] {
          while (!stop_.load(std::memory_order_relaxed)) {
            counter.fetch_add(3, std::memory_order_relaxed);
            std::this_thread::sleep_for(200us);
          }
        }) {}
  ~SignalPump() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(PoolGovernor, GrowsToMaxWhenGrowSignalDominates) {
  ThreadPool pool(1);
  std::atomic<std::uint64_t> grow{0}, shrink{0};
  PoolGovernor governor("test/grow", pool, grow, shrink, fast_config(1, 4));
  SignalPump pump(grow);
  EXPECT_TRUE(eventually([&] { return governor.stats().threads_current == 4; }))
      << "stuck at " << governor.stats().threads_current;
  auto s = governor.stats();
  EXPECT_GE(s.resizes, 3u);   // 1 -> 2 -> 3 -> 4
  EXPECT_GE(s.grows, 3u);
  EXPECT_EQ(s.threads_peak, 4u);
  EXPECT_TRUE(eventually([&] { return pool.thread_count() == 4; }));
}

TEST(PoolGovernor, ShrinksToMinWhenShrinkSignalDominates) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> grow{0}, shrink{0};
  PoolGovernor governor("test/shrink", pool, grow, shrink, fast_config(1, 4));
  SignalPump pump(shrink);
  EXPECT_TRUE(eventually([&] { return governor.stats().threads_current == 1; }))
      << "stuck at " << governor.stats().threads_current;
  auto s = governor.stats();
  EXPECT_GE(s.shrinks, 3u);  // 4 -> 3 -> 2 -> 1
  EXPECT_EQ(s.threads_peak, 4u);  // the starting width was the widest
  EXPECT_TRUE(eventually([&] { return pool.thread_count() == 1; }));
}

TEST(PoolGovernor, BalancedSignalsHoldTheSize) {
  // Both signals advance in lockstep (bumped together, from one thread), so
  // EVERY control window sees a 50/50 split: neither side reaches dominance
  // and the dead band holds the width — the no-flap guarantee. Bumps of 1
  // keep the worst-case snapshot skew (a window boundary landing between the
  // two fetch_adds) to a single event, which can never tip a >=min_events
  // window past the 0.65 dominance threshold.
  ThreadPool pool(2);
  std::atomic<std::uint64_t> grow{0}, shrink{0};
  PoolGovernor governor("test/balanced", pool, grow, shrink, fast_config(1, 4));
  auto deadline = std::chrono::steady_clock::now() + 100ms;  // ~100 windows
  while (std::chrono::steady_clock::now() < deadline) {
    grow.fetch_add(1, std::memory_order_relaxed);
    shrink.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::sleep_for(50us);
  }
  auto s = governor.stats();
  EXPECT_EQ(s.resizes, 0u);
  EXPECT_EQ(s.threads_current, 2u);
}

TEST(PoolGovernor, QuietWindowsHoldTheSize) {
  // No stall evidence at all (< min_events per window): no resizes.
  ThreadPool pool(3);
  std::atomic<std::uint64_t> grow{0}, shrink{0};
  PoolGovernor governor("test/quiet", pool, grow, shrink, fast_config(1, 8));
  std::this_thread::sleep_for(50ms);
  grow.fetch_add(1, std::memory_order_relaxed);  // below min_events
  std::this_thread::sleep_for(50ms);
  auto s = governor.stats();
  EXPECT_EQ(s.resizes, 0u);
  EXPECT_EQ(s.threads_current, 3u);
  EXPECT_EQ(s.threads_peak, 3u);
}

TEST(PoolGovernor, RespectsBounds) {
  ThreadPool pool(2);
  std::atomic<std::uint64_t> grow{0}, shrink{0};
  PoolGovernor governor("test/bounds", pool, grow, shrink, fast_config(2, 3));
  {
    SignalPump pump(grow);
    EXPECT_TRUE(eventually([&] { return governor.stats().threads_current == 3; }));
    std::this_thread::sleep_for(20ms);  // keep pushing against the ceiling
  }
  EXPECT_EQ(governor.stats().threads_current, 3u);
  {
    SignalPump pump(shrink);
    EXPECT_TRUE(eventually([&] { return governor.stats().threads_current == 2; }));
    std::this_thread::sleep_for(20ms);  // and against the floor
  }
  EXPECT_EQ(governor.stats().threads_current, 2u);
  EXPECT_EQ(governor.stats().threads_peak, 3u);
}

TEST(PoolGovernor, StopIsIdempotentAndFreezesStats) {
  ThreadPool pool(1);
  std::atomic<std::uint64_t> grow{0}, shrink{0};
  auto governor =
      std::make_unique<PoolGovernor>("test/stop", pool, grow, shrink, fast_config(1, 4));
  {
    SignalPump pump(grow);
    EXPECT_TRUE(eventually([&] { return governor->stats().resizes >= 1; }));
  }
  governor->stop();
  governor->stop();  // idempotent
  auto frozen = governor->stats();
  grow.fetch_add(1000, std::memory_order_relaxed);
  std::this_thread::sleep_for(10ms);
  EXPECT_EQ(governor->stats().resizes, frozen.resizes);  // no thread, no steps
  governor.reset();  // dtor after stop() is fine too
}

TEST(PoolGovernor, GovernedPoolStillRunsEveryTask) {
  // Resizes mid-stream must never lose work: run a governed pool under load
  // with an alternating signal and count completions.
  ThreadPool pool(1);
  std::atomic<std::uint64_t> grow{0}, shrink{0};
  PoolGovernorConfig gc = fast_config(1, 6);
  PoolGovernor governor("test/load", pool, grow, shrink, gc);
  std::atomic<int> done{0};
  constexpr int kTasks = 500;
  for (int i = 0; i < kTasks; ++i) {
    pool.post([&] {
      std::this_thread::sleep_for(50us);
      done.fetch_add(1, std::memory_order_relaxed);
    });
    // Alternate which signal dominates so the governor grows AND shrinks
    // while tasks are in flight.
    auto& signal = (i / 100) % 2 ? shrink : grow;
    signal.fetch_add(1, std::memory_order_relaxed);
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), kTasks);
}

}  // namespace
}  // namespace emlio
