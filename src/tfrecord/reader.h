// TFRecord shard reader over an mmap.
//
// Supports the two access patterns the system needs:
//   * sequential iteration (index building, verification), and
//   * contiguous *slice* reads — grab records [first, first+count) as one
//     byte range and split it into payload views with zero copies. This is
//     the daemon's hot path (§4.1/§4.3).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "tfrecord/mmap_file.h"
#include "tfrecord/record_io.h"
#include "tfrecord/shard_index.h"

namespace emlio::tfrecord {

class ShardReader {
 public:
  /// Map the shard file named by `index`. Validates file size against the
  /// index. Throws std::runtime_error on mismatch.
  explicit ShardReader(ShardIndex index);

  /// Map a shard file at an explicit path with its index.
  ShardReader(ShardIndex index, const std::string& path_override);

  const ShardIndex& index() const noexcept { return index_; }
  std::size_t num_records() const noexcept { return index_.records.size(); }

  /// Payload view of record i (zero-copy; valid while the reader lives).
  /// CRC-verified when `verify` is true.
  std::span<const std::uint8_t> record(std::size_t i, bool verify = false) const;

  /// Zero-copy payload views for the contiguous record range
  /// [first, first+count) — one bounds check, no per-record syscalls.
  std::vector<std::span<const std::uint8_t>> slice(std::size_t first, std::size_t count,
                                                   bool verify = false) const;

  /// Scan the whole file sequentially, verifying every CRC.
  /// Returns the number of records seen; throws on corruption.
  std::size_t verify_all() const;

 private:
  ShardIndex index_;
  MmapFile map_;
};

}  // namespace emlio::tfrecord
