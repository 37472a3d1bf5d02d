#include "baselines/file_loader.h"

#include <cstring>
#include <filesystem>
#include <numeric>

#include "common/log.h"
#include "workload/materialize.h"

namespace emlio::baselines {

namespace {
constexpr std::size_t kOutputQueueDepth = 8;  // PyTorch's prefetch_factor analogue
}  // namespace

FileLoader::FileLoader(FileLoaderConfig config, std::shared_ptr<storage::FileStore> store)
    : config_(std::move(config)),
      store_(std::move(store)),
      tasks_(config_.num_workers * 2 + 4),
      out_(kOutputQueueDepth) {
  if (!store_) throw std::invalid_argument("file loader: null store");
  if (config_.num_samples == 0) throw std::invalid_argument("file loader: empty dataset");
}

FileLoader::~FileLoader() { stop(); }

std::vector<std::uint64_t> FileLoader::epoch_order(std::uint32_t epoch) const {
  std::vector<std::uint64_t> order(config_.num_samples);
  std::iota(order.begin(), order.end(), 0);
  if (config_.shuffle) {
    Rng rng(config_.seed ^ (0xA24BAED4963EE407ull * (epoch + 1)));
    rng.shuffle(order);
  }
  return order;
}

void FileLoader::start() {
  if (!workers_.empty()) return;
  std::size_t n = config_.num_workers ? config_.num_workers : 1;
  workers_live_.store(n, std::memory_order_release);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  feeder_ = std::thread([this] {
    std::uint64_t sequence = 0;
    for (std::uint32_t e = 0; e < config_.epochs; ++e) {
      auto order = epoch_order(e);
      for (std::size_t first = 0; first < order.size(); first += config_.batch_size) {
        Task t;
        t.sequence = sequence++;
        t.epoch = e;
        std::size_t count = std::min(config_.batch_size, order.size() - first);
        t.indices.assign(order.begin() + static_cast<std::ptrdiff_t>(first),
                         order.begin() + static_cast<std::ptrdiff_t>(first + count));
        if (!tasks_.push(std::move(t))) return;
      }
      // Epoch marker: empty index list → last=true batch, ordered after all
      // of this epoch's data batches by its sequence number.
      Task marker;
      marker.sequence = sequence++;
      marker.epoch = e;
      if (!tasks_.push(std::move(marker))) return;
    }
    tasks_.close();
  });
}

void FileLoader::emit_in_order(std::uint64_t sequence, msgpack::WireBatch batch) {
  // The mutex stays held across the push so two workers can never
  // interleave emissions (the consumer never takes this mutex, so a full
  // output queue drains normally — backpressure, not deadlock).
  std::unique_lock<std::mutex> lock(reorder_mutex_);
  reorder_.emplace(sequence, std::move(batch));
  while (!reorder_.empty() && reorder_.begin()->first == next_emit_) {
    msgpack::WireBatch ready = std::move(reorder_.begin()->second);
    reorder_.erase(reorder_.begin());
    ++next_emit_;
    if (!out_.push(std::move(ready))) return;
  }
}

void FileLoader::worker_loop() {
  namespace fs = std::filesystem;
  for (;;) {
    auto task = tasks_.pop();
    if (!task) break;

    msgpack::WireBatch batch;
    batch.epoch = task->epoch;
    batch.batch_id = task->sequence;
    batch.node_id = 0;
    if (task->indices.empty()) {
      batch.last = true;
    } else {
      batch.samples.reserve(task->indices.size());
      for (std::uint64_t idx : task->indices) {
        std::string path =
            (fs::path(config_.dataset_dir) / workload::sample_filename(idx)).string();
        msgpack::WireSample s;
        s.index = idx;
        try {
          s.bytes = store_->read_file(path);
        } catch (const std::exception& e) {
          log::error("file loader: ", e.what());
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.read_errors;
          continue;
        }
        // Per-file layout has no external label map; the label is embedded
        // in the sample header (offset 4, little-endian u32).
        if (s.bytes.size() >= 8) {
          std::uint32_t lbl = 0;
          std::memcpy(&lbl, s.bytes.data() + 4, 4);
          s.label = lbl;
        }
        {
          std::lock_guard<std::mutex> lock(stats_mutex_);
          ++stats_.samples_read;
          stats_.bytes_read += s.bytes.size();
        }
        batch.samples.push_back(std::move(s));
      }
    }
    emit_in_order(task->sequence, std::move(batch));
  }
  if (workers_live_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    out_.close();
  }
}

std::optional<msgpack::WireBatch> FileLoader::next_batch() { return out_.pop(); }

void FileLoader::stop() {
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  tasks_.close();
  out_.close();
  if (feeder_.joinable()) feeder_.join();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

FileLoaderStats FileLoader::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

}  // namespace emlio::baselines
