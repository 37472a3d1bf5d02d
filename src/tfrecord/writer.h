// TFRecord shard writer.
//
// Streams framed records to a shard file while building the ShardIndex that
// the Planner later consumes. The one-time conversion cost this represents is
// what §4.3 amortizes "across all subsequent training jobs".
#pragma once

#include <cstdint>
#include <fstream>
#include <span>
#include <string>

#include "tfrecord/shard_index.h"

namespace emlio::tfrecord {

class ShardWriter {
 public:
  /// Open (truncate) `shard_path` for writing; `shard_id` tags the index.
  ShardWriter(std::uint32_t shard_id, const std::string& shard_path);

  /// Destructor finishes the file but does NOT write the index; call
  /// finish() explicitly to obtain it.
  ~ShardWriter();

  ShardWriter(const ShardWriter&) = delete;
  ShardWriter& operator=(const ShardWriter&) = delete;

  /// Append one record. Returns the record's index entry (offset/size).
  RecordEntry append(std::span<const std::uint8_t> payload, std::int64_t label,
                     std::uint64_t sample_index);

  /// Flush, close the file, and return the completed index.
  ShardIndex finish();

 private:
  std::ofstream out_;
  std::uint64_t offset_ = 0;
  ShardIndex index_;
  bool finished_ = false;
};

}  // namespace emlio::tfrecord
