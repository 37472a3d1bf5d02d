// Preprocessing operators — the DALI stages EMLIO hooks into (§4.1):
// "decoding JPEGs, resizing, cropping, normalizing tensors".
//
// Decode validates the pseudo-JPEG sample's XXH64 trailer over every header
// and body byte (end-to-end integrity from shard build to training) and
// gathers the encoded bytes into a deterministic thumbnail tensor. The
// geometric/statistical ops are faithful implementations over that tensor
// (bounds-checked crop, mean/std normalize, deterministic-seed horizontal
// mirror).
#pragma once

#include <cstdint>
#include <span>

#include "pipeline/tensor.h"

namespace emlio::pipeline {

/// Result of decoding one encoded sample.
struct Decoded {
  std::uint64_t sample_index = 0;
  std::int64_t label = 0;
  bool checksum_ok = false;
  Tensor image;
};

/// Decode encoded (pseudo-JPEG) bytes into a h×w×3 tensor. Pixel values are
/// a deterministic function of the byte stream, in [0, 255].
Decoded decode(std::span<const std::uint8_t> encoded, std::int64_t label,
               std::uint32_t out_height = 32, std::uint32_t out_width = 32);

/// Crop the rectangle at (y0, x0) of size (h, w). Throws std::out_of_range
/// if the rectangle leaves the image.
Tensor crop(const Tensor& in, std::uint32_t y0, std::uint32_t x0, std::uint32_t h,
            std::uint32_t w);

/// Horizontal mirror (the standard training augmentation), applied when
/// `flip` is true. Works in place, so a moved-in buffer is reused.
Tensor mirror(Tensor t, bool flip);

/// Per-channel normalize, in place like mirror: out = (in - mean[c]) /
/// std[c], with a zero std treated as 1.
Tensor normalize(Tensor t, std::span<const float> mean, std::span<const float> stddev);

}  // namespace emlio::pipeline
