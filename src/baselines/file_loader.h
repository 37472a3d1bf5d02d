// PyTorch-DataLoader-style baseline (real-thread implementation).
//
// The access pattern the paper indicts: a shuffled index sampler hands out
// *individual sample files*; W worker threads each open/read one file per
// sample through a FileStore (wrap it in LatencyFileStore and every sample
// pays NFS round trips), workers collate B samples into a batch, and batches
// are emitted in deterministic batch order through a bounded queue. The
// output type is the same WireBatch the EMLIO receiver yields, so trainer,
// pipeline and tests consume both loaders interchangeably.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/bounded_queue.h"
#include "common/rng.h"
#include "msgpack/batch_codec.h"
#include "storage/file_store.h"

namespace emlio::baselines {

struct FileLoaderConfig {
  std::string dataset_dir;        ///< per-file layout (workload::materialize_files)
  std::uint64_t num_samples = 0;
  std::size_t batch_size = 32;    ///< B
  std::size_t num_workers = 4;    ///< W — DataLoader worker processes
  std::uint32_t epochs = 1;
  std::uint64_t seed = 2024;
  bool shuffle = true;
};

struct FileLoaderStats {
  std::uint64_t samples_read = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t read_errors = 0;
};

class FileLoader {
 public:
  /// `store` is shared so callers can interpose latency injection.
  FileLoader(FileLoaderConfig config, std::shared_ptr<storage::FileStore> store);
  ~FileLoader();

  FileLoader(const FileLoader&) = delete;
  FileLoader& operator=(const FileLoader&) = delete;

  /// Start worker threads. Idempotent.
  void start();

  /// Next batch, in deterministic batch order. Epoch markers have
  /// last=true; nullopt after the final epoch.
  std::optional<msgpack::WireBatch> next_batch();

  /// Stop workers (unblocks next_batch). Idempotent.
  void stop();

  FileLoaderStats stats() const;

  /// The shuffled sample order for `epoch` (exposed for determinism tests).
  std::vector<std::uint64_t> epoch_order(std::uint32_t epoch) const;

 private:
  struct Task {
    std::uint64_t sequence;  ///< batch index within the epoch
    std::uint32_t epoch;
    std::vector<std::uint64_t> indices;
  };
  void worker_loop();
  void emit_in_order(std::uint64_t sequence, msgpack::WireBatch batch);

  FileLoaderConfig config_;
  std::shared_ptr<storage::FileStore> store_;

  BoundedQueue<Task> tasks_;
  BoundedQueue<msgpack::WireBatch> out_;
  std::mutex reorder_mutex_;
  std::map<std::uint64_t, msgpack::WireBatch> reorder_;
  std::uint64_t next_emit_ = 0;

  std::thread feeder_;
  std::vector<std::thread> workers_;
  std::atomic<std::size_t> workers_live_{0};
  std::atomic<bool> stopped_{false};

  mutable std::mutex stats_mutex_;
  FileLoaderStats stats_;
};

}  // namespace emlio::baselines
