#include "pipeline/ops.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "workload/sample_generator.h"

namespace emlio::pipeline {

Decoded decode(std::span<const std::uint8_t> encoded, std::int64_t label, std::uint32_t out_height,
               std::uint32_t out_width) {
  Decoded out;
  out.label = label;
  out.checksum_ok = workload::SampleGenerator::validate(encoded.data(), encoded.size());
  if (encoded.size() >= workload::SampleLayout::kMinSampleBytes) {
    out.sample_index = workload::SampleGenerator::embedded_index(encoded.data(), encoded.size());
  }
  out.image = Tensor::zeros(out_height, out_width, 3);

  // Deterministic "pixels": stride the encoded body so different bytes land
  // in different pixels; decode work is O(pixels), as a thumbnail decode is.
  // Pixel i reads body byte (i * 1315423911) % n, stepped without division.
  std::size_t body = workload::SampleLayout::kHeaderBytes;
  if (encoded.size() <= body) return out;  // undecodable: black image
  const std::size_t n = encoded.size() - body;
  const std::size_t step = 1315423911u % n;
  std::size_t k = 0;
  for (float& px : out.image.data) {
    px = static_cast<float>(encoded[body + k]);
    k += step;
    if (k >= n) k -= n;
  }
  return out;
}

Tensor crop(const Tensor& in, std::uint32_t y0, std::uint32_t x0, std::uint32_t h,
            std::uint32_t w) {
  if (y0 + h > in.height || x0 + w > in.width) {
    throw std::out_of_range("crop: rectangle exceeds image bounds");
  }
  Tensor out = Tensor::zeros(h, w, in.channels);
  const std::size_t row = static_cast<std::size_t>(w) * in.channels;
  const std::size_t in_row = static_cast<std::size_t>(in.width) * in.channels;
  const float* src = in.data.data() + static_cast<std::size_t>(y0) * in_row +
                     static_cast<std::size_t>(x0) * in.channels;
  for (std::uint32_t y = 0; y < h; ++y, src += in_row) {
    std::copy_n(src, row, out.data.data() + y * row);
  }
  return out;
}

Tensor mirror(Tensor t, bool flip) {
  const std::size_t ch = t.channels;
  const std::size_t row = t.width * ch;
  if (!flip || row == 0) return t;
  for (std::size_t r = 0; r < t.data.size(); r += row) {
    float* a = t.data.data() + r;
    float* b = a + row - ch;
    for (; a < b; a += ch, b -= ch) std::swap_ranges(a, a + ch, b);
  }
  return t;
}

Tensor normalize(Tensor t, std::span<const float> mean, std::span<const float> stddev) {
  if (mean.size() != t.channels || stddev.size() != t.channels) {
    throw std::invalid_argument("normalize: mean/std size must equal channel count");
  }
  for (std::uint32_t c = 0; c < t.channels; ++c) {
    const float m = mean[c];
    const float s = stddev[c] != 0.0f ? stddev[c] : 1.0f;
    for (std::size_t i = c; i < t.data.size(); i += t.channels) t.data[i] = (t.data[i] - m) / s;
  }
  return t;
}

}  // namespace emlio::pipeline
