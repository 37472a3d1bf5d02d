#include "tfrecord/reader.h"

#include <stdexcept>

namespace emlio::tfrecord {

ShardReader::ShardReader(ShardIndex index) : ShardReader(std::move(index), std::string()) {}

ShardReader::ShardReader(ShardIndex index, const std::string& path_override)
    : index_(std::move(index)),
      map_(path_override.empty() ? index_.shard_path : path_override) {
  if (map_.size() != index_.file_bytes) {
    throw std::runtime_error("tfrecord reader: file size " + std::to_string(map_.size()) +
                             " does not match index (" + std::to_string(index_.file_bytes) +
                             ") for " + map_.path());
  }
  map_.advise_sequential();
}

std::span<const std::uint8_t> ShardReader::record(std::size_t i, bool verify) const {
  if (i >= index_.records.size()) {
    throw std::out_of_range("tfrecord reader: record " + std::to_string(i) + " out of range");
  }
  const auto& e = index_.records[i];
  auto view = map_.view().subspan(e.offset, e.framed_size);
  auto parsed = verify ? read_record(view) : read_record_unchecked(view);
  return parsed.payload;
}

std::vector<std::span<const std::uint8_t>> ShardReader::slice(std::size_t first, std::size_t count,
                                                              bool verify) const {
  auto [begin, end] = index_.byte_range(first, count);
  auto range = map_.view().subspan(begin, end - begin);
  std::vector<std::span<const std::uint8_t>> out;
  out.reserve(count);
  std::size_t pos = 0;
  for (std::size_t i = 0; i < count; ++i) {
    auto parsed = verify ? read_record(range.subspan(pos)) : read_record_unchecked(range.subspan(pos));
    out.push_back(parsed.payload);
    pos += parsed.framed_size;
  }
  return out;
}

std::size_t ShardReader::verify_all() const {
  auto view = map_.view();
  std::size_t pos = 0;
  std::size_t count = 0;
  while (pos < view.size()) {
    auto parsed = read_record(view.subspan(pos));
    pos += parsed.framed_size;
    ++count;
  }
  if (count != index_.records.size()) {
    throw std::runtime_error("tfrecord reader: scanned " + std::to_string(count) +
                             " records, index claims " + std::to_string(index_.records.size()));
  }
  return count;
}

}  // namespace emlio::tfrecord
