// The real loader stack, assembled from public APIs only:
//
//   shard mmap -> Daemon (x daemons) -> tcp | shm -> Receiver
//              -> [pipeline::Pipeline] -> consumer (train::Trainer)
//
// One Stack is one fresh start: the constructor loads the shard indexes,
// builds the planner, creates and connects the transports and starts every
// engine thread, and stop() tears it all down wherever the stream is. The
// daemons serve epochs until stopped, so a run consumes as many whole epochs
// as its time allows.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/daemon.h"
#include "core/planner.h"
#include "core/receiver.h"
#include "net/channel.h"
#include "pipeline/pipeline.h"
#include "dataset.h"
#include "workloads.h"

namespace loadbench {

/// Wall time of the construction phases of one fresh start, in seconds.
struct SetupPhases {
  double index_load_s = 0;   ///< mapping_shard_*.json load
  double start_s = 0;        ///< planner, transports, engines, threads
  double first_batch_s = 0;  ///< construction done -> first batch at the consumer
  double total() const { return index_load_s + start_s + first_batch_s; }
};

/// What the consumer receives: one batch, or the end-of-epoch marker. On the
/// pipeline path `batch` carries the preprocessed samples' indices and
/// labels (the tensors stay in the pipeline's output) and
/// `checksum_failures` the samples whose decode-stage checksum failed.
struct Delivery {
  bool epoch_end = false;
  emlio::msgpack::WireBatch batch;
  std::uint64_t checksum_failures = 0;
};

struct StackStats {
  std::vector<emlio::core::DaemonStats> daemons;
  emlio::core::ReceiverStats receiver;
  emlio::pipeline::PipelineStats pipeline;
};

class Stack {
 public:
  /// Builds and starts the stack; fills phases.index_load_s / start_s.
  /// `trace` turns on the engines' tracers (DaemonConfig::trace and
  /// trace_wire, ReceiverConfig::trace) and times the pipeline feeder's
  /// calls into the receiver.
  Stack(const Workload& workload, const Dataset& dataset, std::uint64_t seed, bool trace,
        SetupPhases& phases);
  ~Stack();

  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Next batch or epoch marker; nullopt once the stream has ended.
  std::optional<Delivery> next();

  /// Tear down: close the receiver (daemon sends then fail), stop the
  /// pipeline and join the daemon threads. Idempotent. A stop before the
  /// epoch finished is a teardown, not a failure.
  void stop();

  StackStats stats() const;
  const emlio::obs::Tracer& receiver_tracer() const { return receiver_->tracer(); }
  /// Seconds the pipeline feeder spent inside Receiver::next() (trace only).
  double feeder_source_seconds() const {
    return static_cast<double>(feeder_source_ns_.load(std::memory_order_relaxed)) / 1e9;
  }

 private:
  bool trace_;
  std::unique_ptr<emlio::core::Planner> planner_;
  std::vector<std::shared_ptr<emlio::net::MessageSink>> sinks_;
  std::vector<std::unique_ptr<emlio::core::Daemon>> daemons_;
  std::unique_ptr<emlio::core::Receiver> receiver_;
  std::unique_ptr<emlio::pipeline::Pipeline> pipeline_;
  std::vector<std::thread> daemon_threads_;
  std::atomic<std::int64_t> feeder_source_ns_{0};
  bool stopped_ = false;
};

/// One daemon-to-receiver connection of the workload's transport: a TCP
/// loopback PUSH/PULL pair (one stream, HWM = prefetch depth) or an shm
/// segment of prefetch-depth slabs of `slab_bytes`.
struct Transport {
  std::shared_ptr<emlio::net::MessageSink> sink;
  std::unique_ptr<emlio::net::MessageSource> source;
};
Transport make_transport(const Workload& workload, std::size_t slab_bytes);

/// Largest encoded batch the dataset can produce (shm slab size): `batch`
/// times the biggest record, plus msgpack framing headroom.
std::size_t max_encoded_batch(const std::vector<emlio::tfrecord::ShardIndex>& indexes,
                              std::size_t batch);

/// Which of `shards` shard ids daemon `d` of `daemons` owns: contiguous
/// halves (quarters, ...) of the id range.
bool daemon_owns(std::uint32_t shard, std::uint32_t shards, std::size_t d, std::size_t daemons);

}  // namespace loadbench
