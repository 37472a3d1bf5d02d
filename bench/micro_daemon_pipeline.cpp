// A/B microbench for the daemon's storage-side engine (shared read+encode
// pool → per-sink bounded prefetch queues → one dedicated sender per sink):
// a 2-wide encode pool — the thread budget of the paper's one SendWorker per
// node over this bench's two nodes — versus the pool at its auto width.
//
// Topology: 6 shards, 2 compute nodes (2 sinks per daemon), full dataset per
// node (scenario C2 — every batch is built and shipped twice), CRC
// verification ON so the read side carries real CPU cost, and a
// bandwidth/latency-shaped link so the wire is genuinely busy. One epoch is
// timed end-to-end: daemon serve_epoch + both receivers fully drained.
//
// Appends one JSON row per width to emlio_bench_results.jsonl and prints
// the speedup; the auto-width pool must win on any host with more than two
// cores because encode work fans out across the pool while both senders
// keep the links saturated. On ≤2 cores the auto width is the baseline
// width, so only the baseline epoch runs (its sample-count check still
// applies) and the A/B row is recorded as skipped.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench_common.h"
#include "common/thread_pool.h"
#include "core/daemon.h"
#include "core/planner.h"
#include "core/receiver.h"
#include "net/sim_channel.h"
#include "workload/materialize.h"

using namespace emlio;

namespace {

struct RunResult {
  double seconds = 0.0;
  core::DaemonStats stats;
};

RunResult run_epoch(const std::vector<tfrecord::ShardIndex>& indexes,
                    const core::Planner& planner, const workload::DatasetSpec& spec,
                    std::size_t pool_threads, std::size_t prefetch_depth) {
  // Fresh channels per run: daemon → node n, n ∈ {0, 1}.
  net::SimLinkConfig link;
  link.rtt_ms = 2.0;
  link.bandwidth_bytes_per_sec = 400e6;  // per-sink wire: fast but finite
  std::shared_ptr<net::MessageSink> sinks[2];
  std::unique_ptr<net::MessageSource> sources[2];
  for (int n = 0; n < 2; ++n) {
    auto ch = net::make_sim_channel(link);
    sinks[n] = std::shared_ptr<net::MessageSink>(std::move(ch.sink));
    sources[n] = std::move(ch.source);
  }

  core::ReceiverConfig rc;
  rc.num_senders = 1;
  rc.queue_capacity = 16;
  core::Receiver recv0(rc, std::move(sources[0]));
  core::Receiver recv1(rc, std::move(sources[1]));

  std::vector<tfrecord::ShardReader> readers;
  for (const auto& idx : indexes) readers.emplace_back(idx);
  core::DaemonConfig dc;
  dc.daemon_id = "pool" + std::to_string(pool_threads);
  dc.verify_crc = true;  // real read-side CPU cost per record
  dc.pool_threads = pool_threads;
  dc.prefetch_depth = prefetch_depth;
  std::map<std::uint32_t, std::shared_ptr<net::MessageSink>> dsinks{{0u, sinks[0]},
                                                                    {1u, sinks[1]}};
  core::Daemon daemon(dc, std::move(readers), dsinks);

  auto plan = planner.plan_epoch(0, /*num_nodes=*/2);
  auto t0 = std::chrono::steady_clock::now();
  std::thread serve([&] {
    daemon.serve_epoch(plan);
    sinks[0]->close();
    sinks[1]->close();
  });
  auto drain = [&](core::Receiver& r) {
    std::uint64_t samples = 0;
    while (auto b = r.next()) {
      if (b->last) break;
      samples += b->samples.size();
    }
    return samples;
  };
  std::atomic<std::uint64_t> got0{0}, got1{0};
  std::thread c0([&] { got0 = drain(recv0); });
  std::thread c1([&] { got1 = drain(recv1); });
  serve.join();
  c0.join();
  c1.join();
  auto t1 = std::chrono::steady_clock::now();

  if (got0.load() != spec.num_samples || got1.load() != spec.num_samples) {
    std::fprintf(stderr, "micro_daemon_pipeline: WRONG SAMPLE COUNT (%llu / %llu, want %llu)\n",
                 static_cast<unsigned long long>(got0.load()),
                 static_cast<unsigned long long>(got1.load()),
                 static_cast<unsigned long long>(spec.num_samples));
    std::exit(1);
  }
  RunResult r;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.stats = daemon.stats();
  return r;
}

json::Value row_for(std::size_t pool, const RunResult& r, double speedup) {
  json::Object row;
  row["bench"] = "micro_daemon_pipeline";
  row["pool_threads"] = static_cast<std::int64_t>(pool);
  row["cores"] = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  row["epoch_seconds"] = r.seconds;
  row["speedup_vs_width2"] = speedup;
  row["batches_sent"] = static_cast<std::int64_t>(r.stats.batches_sent);
  row["bytes_sent"] = static_cast<std::int64_t>(r.stats.bytes_sent);
  row["enqueue_stalls"] = static_cast<std::int64_t>(r.stats.enqueue_stalls);
  row["sender_stalls"] = static_cast<std::int64_t>(r.stats.sender_stalls);
  row["queue_peak_depth"] = static_cast<std::int64_t>(r.stats.queue_peak_depth);
  return json::Value(std::move(row));
}

}  // namespace

int main() {
  namespace fs = std::filesystem;

  // Baseline: two encode threads, one per destination node. Candidate: the
  // pool sized to the host, exactly as DaemonConfig's auto default does.
  constexpr std::size_t kBaseline = 2;
  const std::size_t pool = auto_pool_width();
  const unsigned cores = std::thread::hardware_concurrency();

  auto dir = fs::temp_directory_path() / "emlio_micro_daemon_pipeline";
  fs::remove_all(dir);

  // ≥4 shards, ≥2 sinks: 6 shards, ~96 MB, served twice (once per node).
  auto spec = workload::presets::tiny(1536, 64 * 1024);
  workload::materialize_tfrecord(spec, dir.string(), /*num_shards=*/6);
  auto indexes = tfrecord::load_all_indexes(dir.string());

  core::PlannerConfig pc;
  pc.batch_size = 32;
  pc.epochs = 1;
  pc.full_dataset_per_node = true;
  core::Planner planner(indexes, pc);

  std::printf("micro_daemon_pipeline: %zu shards, %llu samples x 2 nodes, B=%zu, CRC on, "
              "%u cores\n",
              indexes.size(), static_cast<unsigned long long>(planner.dataset_size()),
              pc.batch_size, cores);

  // Warm the page cache so both runs read from memory (this measures the
  // engine, not cold-file I/O luck).
  for (const auto& idx : indexes) tfrecord::ShardReader(idx).verify_all();

  // The baseline epoch always runs, so its sample-count check gates every
  // host.
  auto base = run_epoch(indexes, planner, spec, kBaseline, /*prefetch_depth=*/16);
  std::printf("  pool=%zu    : %.3f s\n", kBaseline, base.seconds);

  // Tie-by-construction guard: on ≤2 cores the auto width IS the baseline
  // width — the same pool doing the same CPU work at the same wire pacing,
  // so the A/B is meaningless. Skip the comparison explicitly (and record
  // the skip) instead of publishing a ~1.0x "speedup" that reads like a
  // pipeline regression.
  if (pool <= kBaseline) {
    std::printf("micro_daemon_pipeline: SKIP A/B — %u hardware thread(s); the auto pool "
                "width equals the %zu-thread baseline. Run on a >=3-core host for a "
                "meaningful A/B.\n",
                cores, kBaseline);
    json::Value row = row_for(kBaseline, base, 1.0);
    row.as_object()["ab_skipped"] = true;
    bench::append_json_line(std::move(row));
    fs::remove_all(dir);
    return 0;
  }

  auto wide = run_epoch(indexes, planner, spec, pool, /*prefetch_depth=*/16);
  double speedup = base.seconds / wide.seconds;
  std::printf("  pool=%zu    : %.3f s  (auto width, prefetch=16)  speedup %.2fx\n", pool,
              wide.seconds, speedup);
  std::printf("  pool=%zu balance: %llu enqueue stalls / %llu sender stalls, peak depth %llu\n",
              pool, static_cast<unsigned long long>(wide.stats.enqueue_stalls),
              static_cast<unsigned long long>(wide.stats.sender_stalls),
              static_cast<unsigned long long>(wide.stats.queue_peak_depth));
  bench::append_json_line(row_for(kBaseline, base, 1.0));
  bench::append_json_line(row_for(pool, wide, speedup));

  fs::remove_all(dir);
  return 0;
}
