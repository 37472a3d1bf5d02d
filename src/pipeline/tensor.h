// Minimal dense tensor for the preprocessing pipeline.
//
// The pipeline's job in this reproduction is to exercise the *dataflow* of
// DALI-style preprocessing (decode → resize → crop → normalize, prefetched
// asynchronously), not to rival a BLAS. Tensors are HWC float32; decode
// produces a small thumbnail derived deterministically from the encoded
// bytes, so transforms are cheap but every stage still does real,
// verifiable arithmetic. at() is defined here so per-element loops inline
// it; the hot ops work on whole rows or the flat `data` instead.
#pragma once

#include <cstdint>
#include <vector>

namespace emlio::pipeline {

struct Tensor {
  std::uint32_t height = 0;
  std::uint32_t width = 0;
  std::uint32_t channels = 0;
  std::vector<float> data;  ///< HWC layout, size = h*w*c

  static Tensor zeros(std::uint32_t h, std::uint32_t w, std::uint32_t c);

  std::size_t size() const noexcept { return data.size(); }
  float& at(std::uint32_t y, std::uint32_t x, std::uint32_t ch) {
    return data[(static_cast<std::size_t>(y) * width + x) * channels + ch];
  }
  float at(std::uint32_t y, std::uint32_t x, std::uint32_t ch) const {
    return data[(static_cast<std::size_t>(y) * width + x) * channels + ch];
  }

  /// Mean over all elements (used by normalize tests).
  double mean() const;
  /// Population standard deviation.
  double stddev() const;
};

}  // namespace emlio::pipeline
