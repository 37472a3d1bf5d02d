#include "msgpack/msgpack.h"

#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

namespace emlio::msgpack {

namespace {
constexpr int kMaxDepth = 64;  // guards against deeply nested hostile input
[[noreturn]] void unsupported_tag(std::uint8_t tag) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "0x%02X", tag);
  throw std::runtime_error(std::string("msgpack: unsupported tag ") + buf);
}
}  // namespace

// ---------------------------------------------------------------- encoder

void Encoder::pack_bool(bool b) { out_->push_u8(b ? 0xC3 : 0xC2); }

void Encoder::pack_uint(std::uint64_t v) {
  if (v < 0x80u) {
    out_->push_u8(static_cast<std::uint8_t>(v));  // positive fixint
  } else if (v <= 0xFFu) {
    out_->push_u8(0xCC);
    out_->push_u8(static_cast<std::uint8_t>(v));
  } else if (v <= 0xFFFFu) {
    out_->push_u8(0xCD);
    out_->push_u16be(static_cast<std::uint16_t>(v));
  } else if (v <= 0xFFFFFFFFu) {
    out_->push_u8(0xCE);
    out_->push_u32be(static_cast<std::uint32_t>(v));
  } else {
    out_->push_u8(0xCF);
    out_->push_u64be(v);
  }
}

void Encoder::pack_int(std::int64_t v) {
  if (v >= 0) {
    pack_uint(static_cast<std::uint64_t>(v));
    return;
  }
  if (v >= -32) {
    out_->push_u8(static_cast<std::uint8_t>(v));  // negative fixint
  } else if (v >= std::numeric_limits<std::int8_t>::min()) {
    out_->push_u8(0xD0);
    out_->push_u8(static_cast<std::uint8_t>(v));
  } else if (v >= std::numeric_limits<std::int16_t>::min()) {
    out_->push_u8(0xD1);
    out_->push_u16be(static_cast<std::uint16_t>(v));
  } else if (v >= std::numeric_limits<std::int32_t>::min()) {
    out_->push_u8(0xD2);
    out_->push_u32be(static_cast<std::uint32_t>(v));
  } else {
    out_->push_u8(0xD3);
    out_->push_u64be(static_cast<std::uint64_t>(v));
  }
}

void Encoder::pack_string(std::string_view s) {
  std::size_t n = s.size();
  if (n < 32) {
    out_->push_u8(static_cast<std::uint8_t>(0xA0 | n));
  } else if (n <= 0xFFu) {
    out_->push_u8(0xD9);
    out_->push_u8(static_cast<std::uint8_t>(n));
  } else if (n <= 0xFFFFu) {
    out_->push_u8(0xDA);
    out_->push_u16be(static_cast<std::uint16_t>(n));
  } else {
    out_->push_u8(0xDB);
    out_->push_u32be(static_cast<std::uint32_t>(n));
  }
  out_->push_bytes(s);
}

void Encoder::pack_bin(std::span<const std::uint8_t> bytes) {
  std::size_t n = bytes.size();
  if (n <= 0xFFu) {
    out_->push_u8(0xC4);
    out_->push_u8(static_cast<std::uint8_t>(n));
  } else if (n <= 0xFFFFu) {
    out_->push_u8(0xC5);
    out_->push_u16be(static_cast<std::uint16_t>(n));
  } else {
    out_->push_u8(0xC6);
    out_->push_u32be(static_cast<std::uint32_t>(n));
  }
  out_->push_bytes(bytes);
}

void Encoder::pack_array_header(std::size_t n) {
  if (n < 16) {
    out_->push_u8(static_cast<std::uint8_t>(0x90 | n));
  } else if (n <= 0xFFFFu) {
    out_->push_u8(0xDC);
    out_->push_u16be(static_cast<std::uint16_t>(n));
  } else {
    out_->push_u8(0xDD);
    out_->push_u32be(static_cast<std::uint32_t>(n));
  }
}

void Encoder::pack_map_header(std::size_t n) {
  if (n < 16) {
    out_->push_u8(static_cast<std::uint8_t>(0x80 | n));
  } else if (n <= 0xFFFFu) {
    out_->push_u8(0xDE);
    out_->push_u16be(static_cast<std::uint16_t>(n));
  } else {
    out_->push_u8(0xDF);
    out_->push_u32be(static_cast<std::uint32_t>(n));
  }
}

// ---------------------------------------------------------------- decoder

bool Decoder::next_bool() {
  std::uint8_t tag = reader_.read_u8();
  if (tag == 0xC3) return true;
  if (tag == 0xC2) return false;
  throw std::runtime_error("msgpack: value is not bool");
}

std::uint64_t Decoder::next_uint() {
  std::int64_t v = next_int_impl<true>();
  return static_cast<std::uint64_t>(v);
}

std::int64_t Decoder::next_int() { return next_int_impl<false>(); }

template <bool AsUint>
std::int64_t Decoder::next_int_impl() {
  std::uint8_t tag = reader_.read_u8();
  std::uint64_t u = 0;
  std::int64_t s = 0;
  bool is_signed = false;
  if (tag < 0x80) {
    u = tag;  // positive fixint
  } else if (tag >= 0xE0) {
    s = static_cast<std::int8_t>(tag);  // negative fixint
    is_signed = true;
  } else {
    switch (tag) {
      case 0xCC: u = reader_.read_u8(); break;
      case 0xCD: u = reader_.read_u16be(); break;
      case 0xCE: u = reader_.read_u32be(); break;
      case 0xCF: u = reader_.read_u64be(); break;
      case 0xD0: s = static_cast<std::int8_t>(reader_.read_u8()); is_signed = true; break;
      case 0xD1: s = static_cast<std::int16_t>(reader_.read_u16be()); is_signed = true; break;
      case 0xD2: s = static_cast<std::int32_t>(reader_.read_u32be()); is_signed = true; break;
      case 0xD3: s = static_cast<std::int64_t>(reader_.read_u64be()); is_signed = true; break;
      default: throw std::runtime_error("msgpack: value is not int");
    }
  }
  if constexpr (AsUint) {
    if (is_signed && s < 0) throw std::runtime_error("msgpack: negative value as uint");
    if (!is_signed) return static_cast<std::int64_t>(u);  // caller casts back
    return s;
  } else {
    if (is_signed) return s;
    if (u > static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
      throw std::runtime_error("msgpack: uint value out of int64 range");
    }
    return static_cast<std::int64_t>(u);
  }
}

std::string_view Decoder::next_string_view() {
  std::uint8_t tag = reader_.read_u8();
  std::size_t n = 0;
  if ((tag & 0xE0) == 0xA0) {
    n = tag & 0x1F;  // fixstr
  } else {
    switch (tag) {
      case 0xD9: n = reader_.read_u8(); break;
      case 0xDA: n = reader_.read_u16be(); break;
      case 0xDB: n = reader_.read_u32be(); break;
      default: throw std::runtime_error("msgpack: value is not string");
    }
  }
  auto bytes = reader_.read_bytes(n);
  return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

std::span<const std::uint8_t> Decoder::next_bin_view() {
  std::uint8_t tag = reader_.read_u8();
  std::size_t n = 0;
  switch (tag) {
    case 0xC4: n = reader_.read_u8(); break;
    case 0xC5: n = reader_.read_u16be(); break;
    case 0xC6: n = reader_.read_u32be(); break;
    default: throw std::runtime_error("msgpack: value is not bin");
  }
  return reader_.read_bytes(n);
}

std::size_t Decoder::next_array_header() {
  std::uint8_t tag = reader_.read_u8();
  if ((tag & 0xF0) == 0x90) return tag & 0x0F;  // fixarray
  if (tag == 0xDC) return reader_.read_u16be();
  if (tag == 0xDD) return reader_.read_u32be();
  throw std::runtime_error("msgpack: value is not array");
}

std::size_t Decoder::next_map_header() {
  std::uint8_t tag = reader_.read_u8();
  if ((tag & 0xF0) == 0x80) return tag & 0x0F;  // fixmap
  if (tag == 0xDE) return reader_.read_u16be();
  if (tag == 0xDF) return reader_.read_u32be();
  throw std::runtime_error("msgpack: value is not map");
}

void Decoder::skip_value() { skip_value(0); }

void Decoder::skip_value(int depth) {
  if (depth > kMaxDepth) throw std::runtime_error("msgpack: nesting too deep");
  std::uint8_t tag = reader_.read_u8();
  if (tag < 0x80 || tag >= 0xE0) return;                      // fixint
  if ((tag & 0xE0) == 0xA0) return reader_.skip(tag & 0x1F);  // fixstr
  if ((tag & 0xF0) == 0x90) {                                 // fixarray
    for (std::size_t i = 0, n = tag & 0x0F; i < n; ++i) skip_value(depth + 1);
    return;
  }
  if ((tag & 0xF0) == 0x80) {  // fixmap
    for (std::size_t i = 0, n = tag & 0x0F; i < n; ++i) {
      skip_value(depth + 1);
      skip_value(depth + 1);
    }
    return;
  }
  auto skip_n = [&](std::size_t n, bool pairs) {
    for (std::size_t i = 0; i < n; ++i) {
      skip_value(depth + 1);
      if (pairs) skip_value(depth + 1);
    }
  };
  switch (tag) {
    case 0xC0: case 0xC2: case 0xC3: return;  // nil / bool
    case 0xC4: return reader_.skip(reader_.read_u8());
    case 0xC5: return reader_.skip(reader_.read_u16be());
    case 0xC6: return reader_.skip(reader_.read_u32be());
    case 0xCA: return reader_.skip(4);  // float32
    case 0xCB: return reader_.skip(8);  // float64
    case 0xCC: case 0xD0: return reader_.skip(1);
    case 0xCD: case 0xD1: return reader_.skip(2);
    case 0xCE: case 0xD2: return reader_.skip(4);
    case 0xCF: case 0xD3: return reader_.skip(8);
    case 0xD9: return reader_.skip(reader_.read_u8());
    case 0xDA: return reader_.skip(reader_.read_u16be());
    case 0xDB: return reader_.skip(reader_.read_u32be());
    case 0xDC: return skip_n(reader_.read_u16be(), false);
    case 0xDD: return skip_n(reader_.read_u32be(), false);
    case 0xDE: return skip_n(reader_.read_u16be(), true);
    case 0xDF: return skip_n(reader_.read_u32be(), true);
    default: unsupported_tag(tag);
  }
}

}  // namespace emlio::msgpack
