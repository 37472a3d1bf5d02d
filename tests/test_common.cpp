// Unit tests for src/common: byte buffers, CRC32C, RNG, queues, pools,
// barrier and clocks.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <set>
#include <thread>
#include <vector>

#include "common/barrier.h"
#include "common/bounded_queue.h"
#include "common/bytes.h"
#include "common/clock.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace emlio {
namespace {

// ---------------------------------------------------------------- bytes

std::vector<std::uint8_t> bytes_of(std::string_view sv) {
  return {sv.begin(), sv.end()};
}

TEST(Bytes, PushAndReadLittleEndian) {
  ByteBuffer buf;
  buf.push_u16le(0x1234);
  buf.push_u32le(0xDEADBEEF);
  buf.push_u64le(0x0123456789ABCDEFull);
  ByteReader r(buf.view());
  EXPECT_EQ(r.read_u16le(), 0x1234);
  EXPECT_EQ(r.read_u32le(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64le(), 0x0123456789ABCDEFull);
  EXPECT_THROW(r.read_u8(), std::out_of_range);  // all input consumed
}

TEST(Bytes, PushAndReadBigEndian) {
  ByteBuffer buf;
  buf.push_u16be(0x1234);
  buf.push_u32be(0xCAFEBABE);
  buf.push_u64be(42);
  EXPECT_EQ(buf.data()[0], 0x12);  // big-endian: MSB first
  EXPECT_EQ(buf.data()[1], 0x34);
  ByteReader r(buf.view());
  EXPECT_EQ(r.read_u16be(), 0x1234);
  EXPECT_EQ(r.read_u32be(), 0xCAFEBABEu);
  EXPECT_EQ(r.read_u64be(), 42u);
}

TEST(Bytes, ReaderThrowsOnTruncation) {
  ByteBuffer buf;
  buf.push_u16le(7);
  ByteReader r(buf.view());
  r.read_u8();
  EXPECT_THROW(r.read_u32le(), std::out_of_range);
}

TEST(Bytes, ReadBytesAndSkip) {
  auto v = bytes_of("hello world");
  ByteReader r(v);
  r.skip(6);
  auto tail = r.read_bytes(5);
  EXPECT_EQ(std::string(tail.begin(), tail.end()), "world");
  EXPECT_THROW(r.skip(1), std::out_of_range);
}

TEST(Bytes, TakeLeavesBufferEmpty) {
  ByteBuffer buf;
  buf.push_bytes(std::string_view("abc"));
  auto v = buf.take();
  EXPECT_EQ(v.size(), 3u);
  EXPECT_TRUE(buf.empty());
}

// ---------------------------------------------------------------- crc32c

TEST(Crc32c, KnownVectors) {
  // RFC 3720-style check: crc32c("123456789") = 0xE3069283.
  auto bytes = bytes_of("123456789");
  EXPECT_EQ(crc32c::compute(bytes), 0xE3069283u);
}

TEST(Crc32c, EmptyInputIsZero) {
  EXPECT_EQ(crc32c::compute({}), 0u);
}

TEST(Crc32c, MaskChangesValue) {
  EXPECT_NE(crc32c::mask(0xE3069283u), 0xE3069283u);
}

TEST(Crc32c, IncrementalMatchesOneShot) {
  auto all = bytes_of("the quick brown fox");
  auto part1 = std::span<const std::uint8_t>(all).subspan(0, 9);
  // Incremental continuation is not a public API requirement; verify
  // one-shot determinism instead.
  EXPECT_EQ(crc32c::compute(all), crc32c::compute(all));
  EXPECT_NE(crc32c::compute(part1), crc32c::compute(all));
}

// ---------------------------------------------------------------- rng

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(Rng, UniformBoundZeroAndOne) {
  Rng rng(7);
  EXPECT_EQ(rng.uniform(0), 0u);
  EXPECT_EQ(rng.uniform(1), 0u);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(3);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng rng(11);
  std::vector<double> xs(50000);
  for (double& x : xs) x = rng.normal(5.0, 2.0);
  const double mean = std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(xs.size());
  double ss = 0.0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(std::sqrt(ss / static_cast<double>(xs.size() - 1)), 2.0, 0.05);
}

TEST(Rng, ShufflePermutes) {
  Rng rng(5);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(original.begin(), original.end());
  EXPECT_EQ(a, b);  // same elements
}

TEST(Rng, ShuffleDeterministicPerSeed) {
  std::vector<int> v1{1, 2, 3, 4, 5, 6}, v2{1, 2, 3, 4, 5, 6};
  Rng a(99), b(99);
  a.shuffle(v1);
  b.shuffle(v2);
  EXPECT_EQ(v1, v2);
}

// ---------------------------------------------------------------- queue

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(q.push(i));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.pop().value(), i);
}

TEST(BoundedQueue, TryPushFailsWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
}

TEST(BoundedQueue, CloseDrainsThenReturnsNullopt) {
  BoundedQueue<int> q(4);
  q.push(1);
  q.push(2);
  q.close();
  EXPECT_FALSE(q.push(3));
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, BlockingPushUnblocksOnPop) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<bool> pushed{false};
  std::thread t([&] {
    q.push(2);
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  EXPECT_EQ(q.pop().value(), 1);
  t.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.pop().value(), 2);
}

TEST(BoundedQueue, CloseUnblocksWaitingProducer) {
  BoundedQueue<int> q(1);
  q.push(1);
  std::thread t([&] { EXPECT_FALSE(q.push(2)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  q.close();
  t.join();
}

TEST(BoundedQueue, PushRejectedByCloseLeavesItemRecoverable) {
  // The contract the daemon's per-sink send queues depend on: a push that
  // loses the race with close() must NOT consume the item — the producer
  // gets to keep (account for, re-route, or deliberately drop) it.
  BoundedQueue<std::vector<int>> q(1);
  std::vector<int> first{1, 2, 3};
  ASSERT_TRUE(q.push(first));
  EXPECT_TRUE(first.empty());  // accepted items ARE moved from

  std::vector<int> second{4, 5, 6};
  std::atomic<bool> rejected{false};
  std::thread t([&] {
    if (!q.push(second)) rejected = true;  // blocks on the full queue
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();  // closes while the producer waits mid-push
  t.join();
  EXPECT_TRUE(rejected.load());
  EXPECT_EQ(second, (std::vector<int>{4, 5, 6}));  // value survived rejection
}

TEST(BoundedQueue, TryPushRejectionLeavesItemRecoverable) {
  BoundedQueue<std::vector<int>> q(1);
  ASSERT_TRUE(q.try_push(std::vector<int>{1}));
  std::vector<int> item{7, 8};
  EXPECT_FALSE(q.try_push(item));  // full
  EXPECT_EQ(item, (std::vector<int>{7, 8}));
  q.close();
  EXPECT_FALSE(q.try_push(item));  // closed
  EXPECT_EQ(item, (std::vector<int>{7, 8}));
}

TEST(BoundedQueue, CloseThenDrainDeliversEverythingAccepted) {
  // Close/drain semantics: everything accepted before close() comes out of
  // pop() in order; nothing accepted after close() exists to come out.
  BoundedQueue<int> q(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.push(i));
  q.close();
  EXPECT_FALSE(q.push(99));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.pop().value(), i);
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, ManyProducersManyConsumers) {
  BoundedQueue<int> q(16);
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  std::atomic<long> sum{0};
  std::atomic<int> count{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) q.push(p * kPerProducer + i);
    });
  }
  for (int c = 0; c < 3; ++c) {
    threads.emplace_back([&] {
      while (auto v = q.pop()) {
        sum += *v;
        ++count;
      }
    });
  }
  for (int p = 0; p < kProducers; ++p) threads[p].join();
  q.close();
  for (std::size_t c = kProducers; c < threads.size(); ++c) threads[c].join();
  int n = kProducers * kPerProducer;
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(sum.load(), static_cast<long>(n) * (n - 1) / 2);
}

// ---------------------------------------------------------------- pool

TEST(ThreadPool, ExecutesAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) pool.post([&] { ++counter; });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, SubmitPropagatesException) {
  ThreadPool pool(1);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 1u);
  auto f = pool.submit([] { return 1; });
  EXPECT_EQ(f.get(), 1);
}

TEST(ThreadPool, WaitIdleWithNoTasks) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
}

// ---------------------------------------------------------------- barrier

TEST(CyclicBarrier, AlignsThreadsOverGenerations) {
  CyclicBarrier barrier(3);
  std::atomic<int> phase_counts[3] = {{0}, {0}, {0}};
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      for (int g = 0; g < 3; ++g) {
        std::size_t gen = barrier.arrive_and_wait();
        ++phase_counts[gen];
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int g = 0; g < 3; ++g) EXPECT_EQ(phase_counts[g].load(), 3);
}

TEST(CyclicBarrier, SinglePartyNeverBlocks) {
  CyclicBarrier barrier(1);
  EXPECT_EQ(barrier.arrive_and_wait(), 0u);
  EXPECT_EQ(barrier.arrive_and_wait(), 1u);
}

// ---------------------------------------------------------------- clocks

TEST(Clock, SteadyClockMonotonic) {
  const auto& c = SteadyClock::instance();
  Nanos a = c.now();
  Nanos b = c.now();
  EXPECT_GE(b, a);
}

TEST(Clock, ManualClockAdvances) {
  ManualClock c(100);
  EXPECT_EQ(c.now(), 100);
  c.advance(50);
  EXPECT_EQ(c.now(), 150);
  c.set(10);
  EXPECT_EQ(c.now(), 10);
}

TEST(Clock, ConversionHelpers) {
  EXPECT_EQ(from_seconds(1.5), 1'500'000'000);
  EXPECT_EQ(from_millis(2.0), 2'000'000);
  EXPECT_EQ(from_micros(3.0), 3'000);
  EXPECT_DOUBLE_EQ(to_seconds(2'500'000'000), 2.5);
}

TEST(Clock, StopwatchMeasuresManualTime) {
  ManualClock c;
  Stopwatch sw(c);
  c.advance(from_seconds(2));
  EXPECT_DOUBLE_EQ(sw.elapsed_seconds(), 2.0);
  sw.reset();
  EXPECT_EQ(sw.elapsed(), 0);
}

}  // namespace
}  // namespace emlio
