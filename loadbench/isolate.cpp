#include "isolate.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <map>
#include <memory>
#include <thread>

#include "core/daemon.h"
#include "core/planner.h"
#include "core/receiver.h"
#include "msgpack/batch_codec.h"
#include "obs/trace.h"
#include "pipeline/pipeline.h"
#include "stack.h"
#include "tfrecord/reader.h"

namespace loadbench {

namespace em = emlio;

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

namespace {

/// Pre-encoded batches held in memory per source are capped at this many
/// bytes (but at least two batches), so a 16 MB-batch workload does not
/// hold its whole dataset twice.
constexpr std::size_t kReplayBytes = 64u << 20;

// Keeps the byte-touch loops observable.
std::atomic<std::uint64_t> g_touch{0};

class Meter {
 public:
  explicit Meter(LayerRun& run) : run_(run) {}
  void start() {
    cpu0_ = process_cpu_seconds();
    t0_ = em::obs::now_ns();
  }
  double elapsed() const { return static_cast<double>(em::obs::now_ns() - t0_) / 1e9; }
  void stop() {
    run_.wall_s = elapsed();
    run_.cpu_s = process_cpu_seconds() - cpu0_;
  }

 private:
  LayerRun& run_;
  std::int64_t t0_ = 0;
  double cpu0_ = 0;
};

/// One pre-encoded batch and the sample payload it carries.
struct Encoded {
  em::Payload payload;
  std::uint64_t bytes = 0;
  std::uint64_t samples = 0;
};

/// The dataset's shards and epoch-0 batch plan, for building batches
/// outside the daemon.
struct Corpus {
  std::vector<em::tfrecord::ShardIndex> indexes;
  std::map<std::uint32_t, em::tfrecord::ShardReader> readers;
  std::vector<em::core::BatchAssignment> batches;  ///< epoch 0, node 0, by batch id

  Corpus(const Workload& w, const Dataset& d, std::uint64_t seed)
      : indexes(em::tfrecord::load_all_indexes(d.directory)) {
    for (const auto& idx : indexes) readers.emplace(idx.shard_id, em::tfrecord::ShardReader(idx));
    em::core::PlannerConfig pc;
    pc.batch_size = w.batch;
    pc.seed = seed;
    const auto plan = em::core::Planner(indexes, pc).plan_epoch(0, 1);
    for (const auto& worker : plan.nodes.at(0).workers) {
      batches.insert(batches.end(), worker.batches.begin(), worker.batches.end());
    }
    std::sort(batches.begin(), batches.end(),
              [](const auto& a, const auto& b) { return a.batch_id < b.batch_id; });
  }

  /// The batch the daemon would build for `a`: zero-copy views of the shard.
  em::msgpack::WireBatch build(const em::core::BatchAssignment& a) const {
    em::msgpack::WireBatch b;
    b.epoch = a.epoch;
    b.batch_id = a.batch_id;
    b.shard_id = a.shard_id;
    const auto& reader = readers.at(a.shard_id);
    const auto spans = reader.slice(a.first_record, a.count);
    for (std::size_t k = 0; k < spans.size(); ++k) {
      const auto& rec = reader.index().records[a.first_record + k];
      b.samples.push_back({rec.sample_index, rec.label, em::PayloadView(spans[k])});
    }
    return b;
  }

  /// Encoded batches of the shards daemon `d` of `daemons` owns, up to
  /// kReplayBytes.
  std::vector<Encoded> encoded(std::uint32_t shards, std::size_t d, std::size_t daemons) const {
    std::vector<Encoded> out;
    std::size_t held = 0;
    for (const auto& a : batches) {
      if (!daemon_owns(a.shard_id, shards, d, daemons)) continue;
      if (out.size() >= 2 && held >= kReplayBytes) break;
      auto b = build(a);
      out.push_back({em::msgpack::BatchCodec::encode(b), b.payload_bytes(), b.samples.size()});
      held += out.back().payload.size();
    }
    return out;
  }
};

LayerRun run_tfrecord(const Corpus& c, double budget_s) {
  LayerRun run{"tfrecord"};
  Meter m(run);
  m.start();
  std::uint64_t touch = 0;
  while (m.elapsed() < budget_s) {
    for (const auto& a : c.batches) {
      for (auto span : c.readers.at(a.shard_id).slice(a.first_record, a.count)) {
        for (std::size_t i = 0; i < span.size(); i += 64) touch += span[i];
        run.gb += static_cast<double>(span.size()) / 1e9;
        run.samples += 1;
      }
      if (m.elapsed() >= budget_s) break;
    }
  }
  m.stop();
  g_touch.fetch_add(touch, std::memory_order_relaxed);
  return run;
}

LayerRun run_encode(const Corpus& c, double budget_s) {
  LayerRun run{"msgpack_encode"};
  std::vector<em::msgpack::WireBatch> built;
  for (const auto& a : c.batches) built.push_back(c.build(a));
  auto pool = em::BufferPool::create();
  Meter m(run);
  m.start();
  while (m.elapsed() < budget_s) {
    for (const auto& b : built) {
      em::Payload p = em::msgpack::BatchCodec::encode(b, *pool);
      run.gb += static_cast<double>(b.payload_bytes()) / 1e9;
      run.samples += static_cast<double>(b.samples.size());
      if (m.elapsed() >= budget_s) break;
    }
  }
  m.stop();
  return run;
}

LayerRun run_decode(const Workload& w, const Corpus& c, double budget_s) {
  LayerRun run{"msgpack_decode"};
  const auto encoded = c.encoded(w.shards, 0, 1);
  Meter m(run);
  m.start();
  while (m.elapsed() < budget_s) {
    for (const auto& e : encoded) {
      auto b = em::msgpack::BatchCodec::decode(em::PayloadView(e.payload));
      run.gb += static_cast<double>(e.bytes) / 1e9;
      run.samples += static_cast<double>(b.samples.size());
    }
  }
  m.stop();
  return run;
}

class NullSink final : public em::net::MessageSink {
 public:
  bool send(em::Payload) override { return true; }
  void close() override {}
};

LayerRun run_daemon(const Workload& w, const Dataset& d, const Corpus& c, std::uint64_t seed,
                    double budget_s) {
  LayerRun run{"daemon"};
  em::core::PlannerConfig pc;
  pc.batch_size = w.batch;
  pc.epochs = 1u << 20;
  pc.seed = seed;
  const em::core::Planner planner(c.indexes, pc);

  std::vector<std::unique_ptr<em::core::Daemon>> daemons;
  std::vector<double> owned_gb(w.daemons, 0.0), owned_samples(w.daemons, 0.0);
  for (std::size_t k = 0; k < w.daemons; ++k) {
    std::vector<em::tfrecord::ShardReader> readers;
    for (const auto& idx : c.indexes) {
      if (!daemon_owns(idx.shard_id, w.shards, k, w.daemons)) continue;
      readers.emplace_back(idx);
      owned_gb[k] += static_cast<double>(idx.payload_bytes()) / 1e9;
      owned_samples[k] += static_cast<double>(idx.num_records());
    }
    em::core::DaemonConfig dc;
    dc.daemon_id = "daemon" + std::to_string(k);
    dc.pool_threads = w.pool_threads;
    dc.prefetch_depth = w.prefetch_depth;
    dc.cache_bytes = static_cast<std::size_t>(
        w.cache_fraction * static_cast<double>(d.payload_bytes) / static_cast<double>(w.daemons));
    daemons.push_back(std::make_unique<em::core::Daemon>(
        dc, std::move(readers),
        std::map<std::uint32_t, std::shared_ptr<em::net::MessageSink>>{
            {0, std::make_shared<NullSink>()}}));
  }

  // Epoch 0 warms each daemon (and its cache) untimed; the timed epochs
  // start together and run until the budget is spent.
  std::latch warm(static_cast<std::ptrdiff_t>(w.daemons));
  std::latch go(1);
  std::atomic<bool> stop{false};
  std::vector<std::uint32_t> epochs(w.daemons, 0);
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < w.daemons; ++k) {
    threads.emplace_back([&, k] {
      daemons[k]->serve_epoch(planner.plan_epoch(0, 1));
      warm.count_down();
      go.wait();
      for (std::uint32_t e = 1; !stop.load(std::memory_order_relaxed); ++e) {
        daemons[k]->serve_epoch(planner.plan_epoch(e, 1));
        ++epochs[k];
      }
    });
  }
  warm.wait();
  Meter m(run);
  m.start();
  go.count_down();
  while (m.elapsed() < budget_s) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  stop.store(true);
  for (auto& t : threads) t.join();
  m.stop();
  for (std::size_t k = 0; k < w.daemons; ++k) {
    run.gb += epochs[k] * owned_gb[k];
    run.samples += epochs[k] * owned_samples[k];
  }
  return run;
}

LayerRun run_transport(const Workload& w, const Corpus& c, double budget_s) {
  LayerRun run{"net"};
  const std::size_t slab_bytes = max_encoded_batch(c.indexes, w.batch);
  std::vector<std::vector<Encoded>> sets;
  std::vector<Transport> pairs;
  for (std::size_t k = 0; k < w.daemons; ++k) {
    sets.push_back(c.encoded(w.shards, k, w.daemons));
    pairs.push_back(make_transport(w, slab_bytes));
  }
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> bytes(w.daemons, 0), samples(w.daemons, 0);
  std::vector<std::thread> threads;
  Meter m(run);
  m.start();
  for (std::size_t k = 0; k < w.daemons; ++k) {
    threads.emplace_back([&, k] {
      const auto& set = sets[k];
      for (std::size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        const Encoded& e = set[i % set.size()];
        if (!pairs[k].sink->send(e.payload)) break;
        bytes[k] += e.bytes;
        samples[k] += e.samples;
      }
      pairs[k].sink->close();
    });
    threads.emplace_back([&, k] {
      while (pairs[k].source->recv()) {
      }
    });
  }
  while (m.elapsed() < budget_s) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  stop.store(true);
  for (auto& t : threads) t.join();
  m.stop();
  for (std::size_t k = 0; k < w.daemons; ++k) {
    run.gb += static_cast<double>(bytes[k]) / 1e9;
    run.samples += static_cast<double>(samples[k]);
  }
  return run;
}

/// A MessageSource replaying pre-encoded epoch-0 batches from memory until
/// stopped, then the sentinel announcing how many it sent, then the end.
class ReplaySource final : public em::net::MessageSource {
 public:
  ReplaySource(std::vector<Encoded> set, std::atomic<bool>& stop)
      : set_(std::move(set)), stop_(stop) {}

  std::optional<em::Payload> recv() override {
    if (closed_.load(std::memory_order_acquire)) return std::nullopt;
    if (!stop_.load(std::memory_order_relaxed)) return set_[sent_++ % set_.size()].payload;
    if (sentinel_sent_) return std::nullopt;
    sentinel_sent_ = true;
    return em::msgpack::BatchCodec::encode(em::msgpack::BatchCodec::make_sentinel(0, 0, sent_));
  }
  void close() override { closed_.store(true, std::memory_order_release); }

 private:
  std::vector<Encoded> set_;
  std::atomic<bool>& stop_;
  std::atomic<bool> closed_{false};
  std::uint64_t sent_ = 0;
  bool sentinel_sent_ = false;
};

LayerRun run_receiver(const Workload& w, const Corpus& c, double budget_s) {
  LayerRun run{"receiver"};
  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<em::net::MessageSource>> sources;
  for (std::size_t k = 0; k < w.daemons; ++k) {
    sources.push_back(std::make_unique<ReplaySource>(c.encoded(w.shards, k, w.daemons), stop));
  }
  em::core::ReceiverConfig rc;
  rc.num_senders = w.daemons;
  rc.queue_capacity = w.prefetch_depth;
  rc.decode_threads = w.decode_threads;
  Meter m(run);
  m.start();
  em::core::Receiver receiver(rc, std::move(sources));
  std::uint64_t bytes = 0;
  while (auto b = receiver.next()) {
    if (b->last) break;  // every replay source has sent its sentinel
    bytes += b->payload_bytes();
    run.samples += static_cast<double>(b->samples.size());
    if (m.elapsed() >= budget_s) stop.store(true, std::memory_order_relaxed);
  }
  m.stop();
  run.gb = static_cast<double>(bytes) / 1e9;
  return run;
}

LayerRun run_pipeline(const Workload& w, const Corpus& c, std::uint64_t seed, double budget_s) {
  LayerRun run{"pipeline"};
  std::vector<em::msgpack::WireBatch> batches;
  for (const auto& e : c.encoded(w.shards, 0, 1)) {
    batches.push_back(em::msgpack::BatchCodec::decode(em::PayloadView(e.payload)));
  }
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> bytes{0};
  std::size_t next = 0;
  em::pipeline::PipelineConfig cfg;
  cfg.num_threads = w.pipeline_workers;
  cfg.augment_seed = seed;
  Meter m(run);
  m.start();
  {
    em::pipeline::Pipeline pipe(cfg, [&]() -> std::optional<em::msgpack::WireBatch> {
      if (stop.load(std::memory_order_relaxed)) return std::nullopt;
      const auto& b = batches[next++ % batches.size()];
      bytes.fetch_add(b.payload_bytes(), std::memory_order_relaxed);
      return b;
    });
    while (auto out = pipe.run()) {
      run.samples += static_cast<double>(out->samples.size());
      if (m.elapsed() >= budget_s) stop.store(true, std::memory_order_relaxed);
    }
  }
  m.stop();
  run.gb = static_cast<double>(bytes.load()) / 1e9;
  return run;
}

}  // namespace

std::vector<LayerRun> run_isolation(const Workload& workload, const Dataset& dataset,
                                    std::uint64_t seed, double budget_s) {
  const Corpus corpus(workload, dataset, seed);
  std::vector<LayerRun> runs;
  runs.push_back(run_tfrecord(corpus, budget_s));
  runs.push_back(run_encode(corpus, budget_s));
  runs.push_back(run_decode(workload, corpus, budget_s));
  runs.push_back(run_daemon(workload, dataset, corpus, seed, budget_s));
  runs.push_back(run_transport(workload, corpus, budget_s));
  runs.push_back(run_receiver(workload, corpus, budget_s));
  if (workload.pipeline_workers > 0) {
    runs.push_back(run_pipeline(workload, corpus, seed, budget_s));
  }
  return runs;
}

}  // namespace loadbench
