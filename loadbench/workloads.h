// The three workloads. Every pool width is a fixed number, never 0 ("auto",
// which follows hardware_concurrency), and no governor runs: a run measures
// the same thread layout on every host. README.md says why each exists.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace loadbench {

enum class Wire { kTcp, kShm };

struct Workload {
  const char* name;
  // Dataset, generated from the run's seed.
  std::uint64_t samples;
  std::uint64_t bytes_per_sample;  ///< mean encoded record size
  double size_jitter;              ///< relative stddev of the record size
  std::uint32_t shards;
  // Stack shape.
  std::size_t batch;
  Wire wire;
  std::size_t daemons;          ///< each owns shards/daemons shards, own connection
  std::size_t pool_threads;     ///< daemon read+encode pool width, per daemon
  std::size_t decode_threads;   ///< receiver decode pool width
  std::size_t prefetch_depth;   ///< daemon lane depth == TCP HWM == shm slabs
  double cache_fraction;        ///< cache budget / dataset bytes (0 = off)
  std::size_t pipeline_workers; ///< Pipeline decode workers (0 = no pipeline)
  // Measurement.
  int setup_starts;             ///< fresh starts whose median is setup_s
  std::uint64_t check_every;    ///< timed epochs fully check 1 sample in N
  const char* predicted_ceiling;  ///< layer the design predicts caps it (README.md)
};

inline constexpr Workload kWorkloads[] = {
    // ImageNet-shaped records through the production TCP transport and the
    // preprocessing pipeline; the cache holds half the dataset.
    {"imagenet_tcp", 6000, 100'000, 0.25, 8, 64, Wire::kTcp, 1, 1, 1, 16, 0.5, 2, 30, 16,
     "pipeline"},
    // 2 MB records served from a warm cache over shared memory, no
    // preprocessing: the byte-moving path.
    {"large_shm_warm", 384, 2'000'000, 0.0, 8, 8, Wire::kShm, 1, 1, 1, 8, 1.5, 0, 30, 64,
     "daemon"},
    // 4 KB records from two daemons into one receiver over two TCP
    // connections: per-sample and per-batch overhead.
    {"small_fanin_tcp", 200'000, 4'096, 0.0, 8, 64, Wire::kTcp, 2, 1, 1, 16, 0.0, 0, 20, 64,
     "receiver"},
};

inline const Workload* find_workload(std::string_view name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace loadbench
