#include "common/rng.h"

#include <cmath>
#include <numbers>

namespace emlio {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::uniform(std::uint64_t bound) {
  if (bound == 0) return 0;
  // Lemire-style rejection: unbiased for any bound.
  std::uint64_t threshold = (~bound + 1) % bound;
  for (;;) {
    std::uint64_t r = (*this)();
    if (r >= threshold) return r % bound;
  }
}

double Rng::uniform01() {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::normal(double mean, double stddev) {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  double u1 = 0.0;
  do {
    u1 = uniform01();
  } while (u1 <= 0.0);
  double u2 = uniform01();
  double r = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return mean + stddev * r * std::cos(theta);
}

}  // namespace emlio
