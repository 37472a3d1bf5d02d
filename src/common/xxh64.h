// XXH64 (seed 0): the published xxHash 64-bit digest. Four independent
// accumulators consume 8-byte words, so it runs at memory speed where a
// byte-serial hash pays one multiply per byte. Words are read in host byte
// order, which matches the reference output on little-endian hosts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace emlio {

inline std::uint64_t xxh64(const std::uint8_t* p, std::size_t len) {
  constexpr std::uint64_t k1 = 0x9E3779B185EBCA87ull, k2 = 0xC2B2AE3D27D4EB4Full,
                          k3 = 0x165667B19E3779F9ull, k4 = 0x85EBCA77C2B2AE63ull,
                          k5 = 0x27D4EB2F165667C5ull;
  auto rotl = [](std::uint64_t x, int r) { return (x << r) | (x >> (64 - r)); };
  auto word = [](const std::uint8_t* q) {
    std::uint64_t w = 0;
    std::memcpy(&w, q, 8);
    return w;
  };
  auto round = [&](std::uint64_t acc, std::uint64_t in) { return rotl(acc + in * k2, 31) * k1; };
  auto merge = [&](std::uint64_t h, std::uint64_t v) { return (h ^ round(0, v)) * k1 + k4; };

  const std::uint8_t* end = p + len;
  std::uint64_t h = k5;
  if (len >= 32) {
    std::uint64_t v[4] = {k1 + k2, k2, 0, 0 - k1};
    for (; end - p >= 32; p += 32) {
      for (std::size_t i = 0; i < 4; ++i) v[i] = round(v[i], word(p + 8 * i));
    }
    h = rotl(v[0], 1) + rotl(v[1], 7) + rotl(v[2], 12) + rotl(v[3], 18);
    for (std::uint64_t lane : v) h = merge(h, lane);
  }
  h += len;
  for (; end - p >= 8; p += 8) h = rotl(h ^ round(0, word(p)), 27) * k1 + k4;
  if (end - p >= 4) {
    std::uint32_t w = 0;
    std::memcpy(&w, p, 4);
    h = rotl(h ^ (w * k1), 23) * k2 + k3;
    p += 4;
  }
  for (; p < end; ++p) h = rotl(h ^ (*p * k5), 11) * k1;
  h = (h ^ (h >> 33)) * k2;
  h = (h ^ (h >> 29)) * k3;
  return h ^ (h >> 32);
}

}  // namespace emlio
