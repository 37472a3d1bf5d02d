// Seeded dataset generation. The benchmark program writes the shards itself
// before it builds any stack; generation is never part of a timed figure.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace loadbench {

struct Dataset {
  std::string directory;
  std::uint64_t samples = 0;
  std::uint64_t payload_bytes = 0;  ///< one epoch's sample payload
  /// Expected label of every sample index, from the generator — what the
  /// consumer checks each delivered label against.
  std::vector<std::int64_t> labels;
};

/// Write `workload`'s shards (TFRecord + mapping_shard_*.json, sample i in
/// shard i % shards, the layout tfrecord::build_dataset produces) into
/// `directory`, with sample content and sizes drawn from `seed`. Shards are
/// written in parallel by up to `threads` threads and flushed to disk, so
/// they sit clean in the page cache: reads run at memory speed and no
/// writeback runs during a measurement.
Dataset generate_dataset(const Workload& workload, std::uint64_t seed,
                         const std::string& directory, unsigned threads);

}  // namespace loadbench
