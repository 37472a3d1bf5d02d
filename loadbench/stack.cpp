#include "stack.h"

#include <unistd.h>

#include <map>
#include <stdexcept>
#include <string>

#include "common/log.h"
#include "net/push_pull.h"
#include "net/shm_channel.h"
#include "obs/trace.h"
#include "tfrecord/reader.h"
#include "tfrecord/shard_index.h"

namespace loadbench {

namespace em = emlio;

namespace {

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(em::obs::now_ns() - start_ns) / 1e9;
}

}  // namespace

std::size_t max_encoded_batch(const std::vector<em::tfrecord::ShardIndex>& indexes,
                              std::size_t batch) {
  std::uint64_t largest = 0;
  for (const auto& idx : indexes) {
    for (const auto& r : idx.records) largest = std::max(largest, r.framed_size);
  }
  const std::size_t bytes = batch * largest + (64u << 10);
  return (bytes + 4095) & ~static_cast<std::size_t>(4095);
}

Transport make_transport(const Workload& workload, std::size_t slab_bytes) {
  Transport t;
  if (workload.wire == Wire::kTcp) {
    auto pull = std::make_unique<em::net::PullSocket>(/*port=*/0, workload.prefetch_depth,
                                                      /*expected_senders=*/1);
    em::net::PushPullOptions opts;
    opts.high_water_mark = workload.prefetch_depth;
    t.sink = std::make_shared<em::net::PushSocket>("127.0.0.1", pull->port(), opts);
    t.source = std::move(pull);
  } else {
    static std::atomic<std::uint64_t> seq{0};
    const std::string name = "loadbench." + std::to_string(::getpid()) + "." +
                             std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
    em::net::ShmOptions so;
    so.slab_bytes = slab_bytes;
    so.slab_count = workload.prefetch_depth;
    t.sink = std::make_shared<em::net::ShmMessageSink>(name, so);
    t.source = std::make_unique<em::net::ShmMessageSource>(name);
  }
  return t;
}

bool daemon_owns(std::uint32_t shard, std::uint32_t shards, std::size_t d, std::size_t daemons) {
  return static_cast<std::size_t>(shard) * daemons / shards == d;
}

Stack::Stack(const Workload& workload, const Dataset& dataset, std::uint64_t seed, bool trace,
             SetupPhases& phases)
    : trace_(trace) {
  const std::int64_t t0 = em::obs::now_ns();
  auto indexes = em::tfrecord::load_all_indexes(dataset.directory);
  if (indexes.size() != workload.shards) {
    throw std::runtime_error("loadbench: expected " + std::to_string(workload.shards) +
                             " shards in " + dataset.directory);
  }
  phases.index_load_s = seconds_since(t0);

  const std::int64_t t1 = em::obs::now_ns();
  em::core::PlannerConfig pc;
  pc.batch_size = workload.batch;
  pc.epochs = 1u << 20;  // serve until stopped
  pc.threads_per_node = 1;
  pc.seed = seed;
  planner_ = std::make_unique<em::core::Planner>(indexes, pc);

  const std::size_t slab_bytes =
      workload.wire == Wire::kShm ? max_encoded_batch(indexes, workload.batch) : 0;
  std::vector<std::unique_ptr<em::net::MessageSource>> sources;
  for (std::size_t d = 0; d < workload.daemons; ++d) {
    Transport transport = make_transport(workload, slab_bytes);
    std::shared_ptr<em::net::MessageSink> sink = std::move(transport.sink);
    sources.push_back(std::move(transport.source));

    std::vector<em::tfrecord::ShardReader> readers;
    for (const auto& idx : indexes) {
      if (daemon_owns(idx.shard_id, workload.shards, d, workload.daemons)) {
        readers.emplace_back(idx);
      }
    }
    em::core::DaemonConfig dc;
    dc.daemon_id = "daemon" + std::to_string(d);
    dc.pool_threads = workload.pool_threads;
    dc.prefetch_depth = workload.prefetch_depth;
    dc.cache_bytes = static_cast<std::size_t>(workload.cache_fraction *
                                              static_cast<double>(dataset.payload_bytes) /
                                              static_cast<double>(workload.daemons));
    dc.trace = trace;
    dc.trace_wire = trace;
    daemons_.push_back(std::make_unique<em::core::Daemon>(
        dc, std::move(readers), std::map<std::uint32_t, std::shared_ptr<em::net::MessageSink>>{
                                    {0, sink}}));
    sinks_.push_back(std::move(sink));
  }

  em::core::ReceiverConfig rc;
  rc.num_senders = workload.daemons;
  rc.queue_capacity = workload.prefetch_depth;
  rc.decode_threads = workload.decode_threads;
  rc.trace = trace;
  receiver_ = std::make_unique<em::core::Receiver>(rc, std::move(sources));

  for (std::size_t d = 0; d < workload.daemons; ++d) {
    daemon_threads_.emplace_back([this, d] {
      try {
        daemons_[d]->serve(*planner_, /*num_nodes=*/1);
      } catch (const std::exception& e) {
        em::log::error("loadbench: daemon ", d, ": ", e.what());
      }
      sinks_[d]->close();
    });
  }

  if (workload.pipeline_workers > 0) {
    em::pipeline::PipelineConfig cfg;
    cfg.num_threads = workload.pipeline_workers;
    cfg.augment_seed = seed;
    pipeline_ = std::make_unique<em::pipeline::Pipeline>(
        cfg, [this]() -> std::optional<em::msgpack::WireBatch> {
          if (!trace_) return receiver_->next();
          const std::int64_t start = em::obs::now_ns();
          auto batch = receiver_->next();
          feeder_source_ns_.fetch_add(em::obs::now_ns() - start, std::memory_order_relaxed);
          return batch;
        });
  }
  phases.start_s = seconds_since(t1);
}

Stack::~Stack() { stop(); }

std::optional<Delivery> Stack::next() {
  Delivery out;
  if (!pipeline_) {
    auto batch = receiver_->next();
    if (!batch) return std::nullopt;
    out.epoch_end = batch->last;
    out.batch = std::move(*batch);
    return out;
  }
  auto pre = pipeline_->run();
  if (!pre) return std::nullopt;
  out.epoch_end = pre->epoch_end;
  out.batch.epoch = pre->epoch;
  out.batch.batch_id = pre->batch_id;
  out.batch.samples.reserve(pre->samples.size());
  for (const auto& s : pre->samples) {
    if (!s.checksum_ok) ++out.checksum_failures;
    em::msgpack::WireSample ws;
    ws.index = s.sample_index;
    ws.label = s.label;
    out.batch.samples.push_back(std::move(ws));
  }
  return out;
}

void Stack::stop() {
  if (stopped_) return;
  stopped_ = true;
  receiver_->close();
  if (pipeline_) pipeline_->shutdown();
  for (auto& t : daemon_threads_) t.join();
}

StackStats Stack::stats() const {
  StackStats s;
  for (const auto& d : daemons_) s.daemons.push_back(d->stats());
  s.receiver = receiver_->stats();
  if (pipeline_) s.pipeline = pipeline_->stats();
  return s;
}

}  // namespace loadbench
