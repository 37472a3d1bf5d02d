// Deterministic pseudo-JPEG sample generation.
//
// Loader behaviour depends on record count and byte size, not pixel content,
// so generated samples carry a JPEG-like header, deterministic pseudo-random
// body (incompressible, like real JPEG entropy-coded data), and a trailer
// checksum the pipeline's decode stage verifies — giving the real path an
// end-to-end integrity check from shard build through decode.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "workload/dataset_spec.h"

namespace emlio::workload {

/// Byte layout constants of a generated sample.
struct SampleLayout {
  static constexpr std::uint8_t kMagic0 = 0xFF;  // mimics JPEG SOI
  static constexpr std::uint8_t kMagic1 = 0xD8;
  static constexpr std::size_t kHeaderBytes = 16;   // magic + sample id + label
  static constexpr std::size_t kTrailerBytes = 8;   // XXH64 of header+body
  static constexpr std::size_t kMinSampleBytes = kHeaderBytes + kTrailerBytes + 1;
};

/// Deterministic generator: sample i is identical across runs and processes
/// for the same spec (seeded per sample index, not sequentially).
class SampleGenerator {
 public:
  explicit SampleGenerator(DatasetSpec spec, std::uint64_t seed = 7);

  const DatasetSpec& spec() const noexcept { return spec_; }

  /// Encoded byte size of sample i (applies the spec's size jitter).
  std::uint64_t sample_bytes(std::uint64_t index) const;

  /// Label of sample i (uniform over num_classes, deterministic).
  std::int64_t label(std::uint64_t index) const;

  /// Generate the full encoded sample i.
  std::vector<std::uint8_t> generate(std::uint64_t index) const;

  /// Validate a sample produced by generate(): header magic and the XXH64
  /// trailer over header+body. Returns false on any mismatch.
  static bool validate(const std::vector<std::uint8_t>& bytes);
  static bool validate(const std::uint8_t* data, std::size_t size);

  /// Extract the embedded sample index (throws if malformed).
  static std::uint64_t embedded_index(const std::uint8_t* data, std::size_t size);

 private:
  DatasetSpec spec_;
  std::uint64_t seed_;
};

}  // namespace emlio::workload
