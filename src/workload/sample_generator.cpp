#include "workload/sample_generator.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "common/xxh64.h"

namespace emlio::workload {

SampleGenerator::SampleGenerator(DatasetSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed) {}

std::uint64_t SampleGenerator::sample_bytes(std::uint64_t index) const {
  if (spec_.size_jitter <= 0.0) {
    return std::max<std::uint64_t>(spec_.bytes_per_sample, SampleLayout::kMinSampleBytes);
  }
  Rng rng(seed_ ^ (index * 0x9E3779B97F4A7C15ull) ^ 0x512Eull);
  double jittered = static_cast<double>(spec_.bytes_per_sample) *
                    std::max(0.2, 1.0 + rng.normal(0.0, spec_.size_jitter));
  return std::max<std::uint64_t>(static_cast<std::uint64_t>(jittered),
                                 SampleLayout::kMinSampleBytes);
}

std::int64_t SampleGenerator::label(std::uint64_t index) const {
  Rng rng(seed_ ^ (index * 0xD1B54A32D192ED03ull) ^ 0x1abe1ull);
  return static_cast<std::int64_t>(rng.uniform(spec_.num_classes));
}

std::vector<std::uint8_t> SampleGenerator::generate(std::uint64_t index) const {
  std::uint64_t total = sample_bytes(index);
  std::vector<std::uint8_t> out(total);

  // Header: magic(2) + pad(2) + label(4, LE) + sample index(8, LE).
  out[0] = SampleLayout::kMagic0;
  out[1] = SampleLayout::kMagic1;
  out[2] = 0xE0;  // mimic APP0 marker
  out[3] = 0x00;
  auto lbl = static_cast<std::uint32_t>(label(index));
  std::memcpy(out.data() + 4, &lbl, 4);
  std::memcpy(out.data() + 8, &index, 8);

  // Body: xoshiro stream seeded by the sample index — incompressible.
  std::size_t body_begin = SampleLayout::kHeaderBytes;
  std::size_t body_end = total - SampleLayout::kTrailerBytes;
  Rng rng(seed_ ^ index);
  std::size_t i = body_begin;
  while (i + 8 <= body_end) {
    std::uint64_t word = rng();
    std::memcpy(out.data() + i, &word, 8);
    i += 8;
  }
  for (std::uint64_t word = rng(); i < body_end; ++i, word >>= 8) {
    out[i] = static_cast<std::uint8_t>(word & 0xFF);
  }

  // Trailer: XXH64 of header+body.
  std::uint64_t checksum = xxh64(out.data(), body_end);
  std::memcpy(out.data() + body_end, &checksum, 8);
  return out;
}

bool SampleGenerator::validate(const std::vector<std::uint8_t>& bytes) {
  return validate(bytes.data(), bytes.size());
}

bool SampleGenerator::validate(const std::uint8_t* data, std::size_t size) {
  if (size < SampleLayout::kMinSampleBytes) return false;
  if (data[0] != SampleLayout::kMagic0 || data[1] != SampleLayout::kMagic1) return false;
  std::size_t body_end = size - SampleLayout::kTrailerBytes;
  std::uint64_t stored = 0;
  std::memcpy(&stored, data + body_end, 8);
  return xxh64(data, body_end) == stored;
}

std::uint64_t SampleGenerator::embedded_index(const std::uint8_t* data, std::size_t size) {
  if (size < SampleLayout::kMinSampleBytes) {
    throw std::runtime_error("sample: too small to contain a header");
  }
  std::uint64_t index = 0;
  std::memcpy(&index, data + 8, 8);
  return index;
}

}  // namespace emlio::workload
