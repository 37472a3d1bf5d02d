#include "pipeline/tensor.h"

#include <cmath>
#include <stdexcept>

namespace emlio::pipeline {

Tensor Tensor::zeros(std::uint32_t h, std::uint32_t w, std::uint32_t c) {
  Tensor t;
  t.height = h;
  t.width = w;
  t.channels = c;
  t.data.assign(static_cast<std::size_t>(h) * w * c, 0.0f);
  return t;
}

double Tensor::mean() const {
  if (data.empty()) return 0.0;
  double sum = 0.0;
  for (float v : data) sum += v;
  return sum / static_cast<double>(data.size());
}

double Tensor::stddev() const {
  if (data.empty()) return 0.0;
  double m = mean();
  double acc = 0.0;
  for (float v : data) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(data.size()));
}

}  // namespace emlio::pipeline
