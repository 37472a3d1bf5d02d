// CRC32-C (Castagnoli) plus the TFRecord "masked" variant.
//
// TFRecord frames every record with masked CRC32-C checksums of the length
// field and the payload; we implement the same masking so our shards are
// byte-compatible with the TensorFlow on-disk format the paper uses.
#pragma once

#include <cstdint>
#include <span>

namespace emlio::crc32c {

/// Compute CRC32-C over `bytes`, continuing from a previous crc (0 to start).
std::uint32_t compute(std::span<const std::uint8_t> bytes, std::uint32_t crc = 0);

/// TFRecord masking: rotate right by 15 and add a constant, so that CRCs of
/// CRC-bearing data don't look like valid CRCs.
std::uint32_t mask(std::uint32_t crc);

/// Masked CRC32-C of `bytes` — the value TFRecord stores on disk.
std::uint32_t masked(std::span<const std::uint8_t> bytes);

}  // namespace emlio::crc32c
