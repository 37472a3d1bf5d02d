#include "dataset.h"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <stdexcept>
#include <thread>

#include "tfrecord/writer.h"
#include "workload/sample_generator.h"

namespace loadbench {

namespace {

/// Write a file's dirty pages back now. The pages stay in the page cache,
/// clean, so no kernel writeback competes with the measured stack later.
void flush(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0 || ::fdatasync(fd) != 0) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error("loadbench: cannot flush " + path);
  }
  ::close(fd);
}

}  // namespace

Dataset generate_dataset(const Workload& workload, std::uint64_t seed,
                         const std::string& directory, unsigned threads) {
  namespace fs = std::filesystem;
  using emlio::tfrecord::ShardIndex;
  fs::remove_all(directory);
  fs::create_directories(directory);

  emlio::workload::DatasetSpec spec;
  spec.name = workload.name;
  spec.num_samples = workload.samples;
  spec.bytes_per_sample = workload.bytes_per_sample;
  spec.size_jitter = workload.size_jitter;
  const emlio::workload::SampleGenerator gen(spec, seed);

  std::vector<std::uint64_t> shard_bytes(workload.shards, 0);
  auto write_shards = [&](unsigned first) {
    for (std::uint32_t s = first; s < workload.shards; s += threads) {
      const fs::path dir(directory);
      const std::string shard_path = (dir / ShardIndex::shard_filename(s)).string();
      const std::string index_path = (dir / ShardIndex::index_filename(s)).string();
      emlio::tfrecord::ShardWriter writer(s, shard_path);
      for (std::uint64_t i = s; i < workload.samples; i += workload.shards) {
        auto bytes = gen.generate(i);
        shard_bytes[s] += bytes.size();
        writer.append(bytes, gen.label(i), i);
      }
      writer.finish().save(index_path);
      flush(shard_path);
      flush(index_path);
    }
  };
  threads = std::max(1u, std::min(threads, workload.shards));
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(write_shards, t);
  write_shards(0);
  for (auto& t : pool) t.join();

  Dataset d;
  d.directory = directory;
  d.samples = workload.samples;
  for (auto b : shard_bytes) d.payload_bytes += b;
  d.labels.resize(workload.samples);
  for (std::uint64_t i = 0; i < workload.samples; ++i) d.labels[i] = gen.label(i);
  return d;
}

}  // namespace loadbench
