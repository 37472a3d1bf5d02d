#include "common/crc32c.h"

#include <array>

namespace emlio::crc32c {

namespace {

// Table-driven software implementation (polynomial 0x1EDC6F41, reflected
// 0x82F63B78). Table generated once at static-init time; no SSE4.2 dependency
// so the library runs on any host.
std::array<std::uint32_t, 256> make_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t crc = i;
    for (int j = 0; j < 8; ++j) {
      crc = (crc & 1u) ? (crc >> 1) ^ 0x82F63B78u : crc >> 1;
    }
    table[i] = crc;
  }
  return table;
}

const std::array<std::uint32_t, 256>& table() {
  static const auto t = make_table();
  return t;
}

constexpr std::uint32_t kMaskDelta = 0xA282EAD8u;

}  // namespace

std::uint32_t compute(std::span<const std::uint8_t> bytes, std::uint32_t crc) {
  const auto& t = table();
  crc = ~crc;
  for (std::uint8_t b : bytes) {
    crc = t[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  }
  return ~crc;
}

std::uint32_t mask(std::uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + kMaskDelta;
}

std::uint32_t masked(std::span<const std::uint8_t> bytes) { return mask(compute(bytes)); }

}  // namespace emlio::crc32c
