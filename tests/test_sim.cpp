// Tests for the discrete-event engine, meters, pipes, servers, semaphores
// and testbed presets.
#include <gtest/gtest.h>

#include "sim/engine.h"
#include "sim/meter.h"
#include "sim/pipe.h"
#include "sim/semaphore.h"
#include "sim/testbed.h"

namespace emlio::sim {
namespace {

TEST(Engine, RunsEventsInTimeOrder) {
  Engine eng;
  std::vector<int> order;
  eng.schedule(from_seconds(3), [&] { order.push_back(3); });
  eng.schedule(from_seconds(1), [&] { order.push_back(1); });
  eng.schedule(from_seconds(2), [&] { order.push_back(2); });
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(eng.now(), from_seconds(3));
}

TEST(Engine, SimultaneousEventsFifo) {
  Engine eng;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    eng.schedule(from_seconds(1), [&, i] { order.push_back(i); });
  }
  eng.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Engine, EventsScheduleMoreEvents) {
  Engine eng;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 100) eng.schedule(from_millis(1), chain);
  };
  eng.schedule(0, chain);
  eng.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(eng.now(), from_millis(99));
}

TEST(Engine, RejectsPastScheduling) {
  Engine eng;
  eng.schedule(from_seconds(1), [] {});
  eng.run();
  EXPECT_THROW(eng.schedule_at(0, [] {}), std::invalid_argument);
  EXPECT_THROW(eng.schedule(-1, [] {}), std::invalid_argument);
}

TEST(Meter, IntegratesBusyTime) {
  Engine eng;
  UtilizationMeter meter(eng, 1.0);
  eng.schedule(0, [&] { meter.begin_work(); });
  eng.schedule(from_seconds(2), [&] { meter.end_work(); });
  eng.schedule(from_seconds(4), [] {});
  eng.run();
  EXPECT_DOUBLE_EQ(meter.busy_seconds(), 2.0);
  EXPECT_DOUBLE_EQ(meter.mean_utilization(0, from_seconds(4)), 0.5);
}

TEST(Meter, CapacityNormalizesParallelWork) {
  Engine eng;
  UtilizationMeter meter(eng, 4.0);
  eng.schedule(0, [&] { meter.begin_work(2.0); });  // 2 of 4 cores
  eng.schedule(from_seconds(1), [&] { meter.end_work(2.0); });
  eng.run();
  EXPECT_DOUBLE_EQ(meter.mean_utilization(0, from_seconds(1)), 0.5);
}

TEST(Meter, OversubscriptionClampsAtCapacity) {
  Engine eng;
  UtilizationMeter meter(eng, 2.0);
  eng.schedule(0, [&] { meter.begin_work(5.0); });  // 5 workers on 2 slots
  eng.schedule(from_seconds(1), [&] { meter.end_work(5.0); });
  eng.run();
  EXPECT_DOUBLE_EQ(meter.mean_utilization(0, from_seconds(1)), 1.0);
}

TEST(Meter, UtilizationAtPointInTime) {
  Engine eng;
  UtilizationMeter meter(eng, 1.0);
  eng.schedule(from_seconds(1), [&] { meter.begin_work(); });
  eng.schedule(from_seconds(3), [&] { meter.end_work(); });
  eng.run();
  EXPECT_DOUBLE_EQ(meter.utilization_at(from_seconds(0)), 0.0);
  EXPECT_DOUBLE_EQ(meter.utilization_at(from_seconds(2)), 1.0);
  EXPECT_DOUBLE_EQ(meter.utilization_at(from_seconds(4)), 0.0);
}

TEST(Meter, NegativeActiveThrows) {
  Engine eng;
  UtilizationMeter meter(eng, 1.0);
  EXPECT_THROW(meter.end_work(), std::logic_error);
}

TEST(Pipe, SerializesBackToBackTransfers) {
  Engine eng;
  Pipe pipe(eng, 100.0, 0);  // 100 B/s, no latency
  std::vector<double> completions;
  pipe.transfer(100, [&] { completions.push_back(to_seconds(eng.now())); });
  pipe.transfer(100, [&] { completions.push_back(to_seconds(eng.now())); });
  eng.run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_NEAR(completions[0], 1.0, 1e-9);
  EXPECT_NEAR(completions[1], 2.0, 1e-9);  // queued behind the first
}

TEST(Pipe, LatencyOverlapsAcrossTransfers) {
  Engine eng;
  Pipe pipe(eng, 1e9, from_seconds(1));  // fat pipe, 1 s propagation
  std::vector<double> completions;
  for (int i = 0; i < 3; ++i) {
    pipe.transfer(1000, [&] { completions.push_back(to_seconds(eng.now())); });
  }
  eng.run();
  // All three arrive ≈ t=1: latency is pipelined, not serialized — the
  // property EMLIO exploits and per-request NFS cannot.
  for (double t : completions) EXPECT_NEAR(t, 1.0, 0.001);
}

TEST(Pipe, IdleTransferTakesSerializationPlusLatency) {
  Engine eng;
  Pipe pipe(eng, 1000.0, from_millis(5));
  Nanos delivered = -1;
  pipe.transfer(1000, [&] { delivered = eng.now(); });
  eng.run();
  EXPECT_EQ(delivered, from_seconds(1) + from_millis(5));
}

TEST(Server, LimitsConcurrency) {
  Engine eng;
  Server server(eng, 2);
  std::vector<double> completions;
  for (int i = 0; i < 4; ++i) {
    server.submit(from_seconds(1), [&] { completions.push_back(to_seconds(eng.now())); });
  }
  eng.run();
  ASSERT_EQ(completions.size(), 4u);
  EXPECT_NEAR(completions[0], 1.0, 1e-9);
  EXPECT_NEAR(completions[1], 1.0, 1e-9);
  EXPECT_NEAR(completions[2], 2.0, 1e-9);  // waited for a worker
  EXPECT_NEAR(completions[3], 2.0, 1e-9);
}

TEST(Server, MetersBusyWorkers) {
  Engine eng;
  UtilizationMeter meter(eng, 2.0);
  Server server(eng, 2, &meter);
  server.submit(from_seconds(1), [] {});
  server.submit(from_seconds(1), [] {});
  eng.run();
  EXPECT_DOUBLE_EQ(meter.mean_utilization(0, from_seconds(1)), 1.0);
}

TEST(Semaphore, GrantsImmediatelyWhenAvailable) {
  AsyncSemaphore sem(2);
  int granted = 0;
  sem.acquire([&] { ++granted; });
  sem.acquire([&] { ++granted; });
  EXPECT_EQ(granted, 2);
  EXPECT_EQ(sem.available(), 0u);
}

TEST(Semaphore, QueuesWaitersUntilRelease) {
  AsyncSemaphore sem(1);
  std::vector<int> order;
  sem.acquire([&] { order.push_back(1); });
  sem.acquire([&] { order.push_back(2); });
  sem.acquire([&] { order.push_back(3); });
  EXPECT_EQ(order, (std::vector<int>{1}));
  EXPECT_EQ(sem.waiting(), 2u);
  sem.release();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  sem.release();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  sem.release();
  EXPECT_EQ(sem.available(), 1u);
}

TEST(EnergyRecorder, MatchesAnalyticIntegral) {
  Engine eng;
  UtilizationMeter meter(eng, 1.0);
  eng.schedule(0, [&] { meter.begin_work(); });
  eng.schedule(from_seconds(5), [&] { meter.end_work(); });
  eng.schedule(from_seconds(10), [] {});
  eng.run();
  energy::PowerModel model{"gpu", 50, 250};
  double joules = EnergyRecorder::integrate(model, &meter, 0, from_seconds(10));
  // 5 s at 250 W + 5 s at 50 W = 1500 J.
  EXPECT_NEAR(joules, 1500.0, 1e-6);
}

TEST(EnergyRecorder, WritesMonitorCompatiblePoints) {
  Engine eng;
  UtilizationMeter meter(eng, 1.0);
  eng.schedule(0, [&] { meter.begin_work(); });
  eng.schedule(from_seconds(1), [&] { meter.end_work(); });
  eng.run();

  EnergyRecorder rec("simnode", from_millis(100));
  rec.add(energy::PowerModel{"cpu", 10, 100}, &meter, "cpu_energy");
  tsdb::Database db;
  rec.record(db, 0, from_seconds(1));
  tsdb::Query q;
  q.measurement = "energy";
  q.tag_filter["node_id"] = "simnode";
  EXPECT_EQ(db.select(q).size(), 10u);  // 1 s / 100 ms
  EXPECT_NEAR(db.sum(q, "cpu_energy"), 100.0, 1e-6);
}

TEST(Testbed, Table1Presets) {
  auto uc = presets::uc_compute();
  EXPECT_TRUE(uc.has_gpu());
  EXPECT_EQ(uc.cpu_threads, 48u);
  auto st = presets::uc_storage();
  EXPECT_FALSE(st.has_gpu());
  auto tacc = presets::tacc_compute();
  EXPECT_TRUE(tacc.has_gpu());
  EXPECT_LT(presets::tacc_compute().disk_bytes_per_sec, uc.disk_bytes_per_sec);  // HDD vs SSD
}

TEST(Testbed, RegimePresets) {
  EXPECT_TRUE(presets::local_disk().local_disk);
  EXPECT_DOUBLE_EQ(presets::lan_10ms().rtt_ms, 10.0);
  EXPECT_DOUBLE_EQ(presets::wan_30ms().rtt_ms, 30.0);
  EXPECT_EQ(presets::fig5_regimes().size(), 4u);
}

TEST(Testbed, DescribeMentionsHardware) {
  auto text = describe(presets::uc_compute());
  EXPECT_NE(text.find("gpu"), std::string::npos);
  EXPECT_NE(text.find("Gbps"), std::string::npos);
}

}  // namespace
}  // namespace emlio::sim
