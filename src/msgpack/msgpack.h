// MessagePack streaming encoder/decoder.
//
// The paper serializes each group of B training examples into "a single
// msgpack payload ... a compact, binary serialization format that is both
// fast and space-efficient" (§4.1). This is a from-scratch implementation of
// the MessagePack wire specification with one access style: typed streaming
// calls that write or read one value each and materialize nothing (decoded
// strings and bins are views into the input). The encoder writes bool, all
// int widths (positive/negative fixint, uint8..64, int8..64), str
// (fixstr/str8/16/32), bin (bin8/16/32) and array/map headers (fix/16/32).
// The decoder reads the same types back and can skip one complete value of
// any type, nil and float32/64 included, so a batch from a newer sender
// with unknown keys still decodes. Encoded bytes are interoperable with
// other MessagePack implementations.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

#include "common/bytes.h"

namespace emlio::msgpack {

/// Streaming encoder writing MessagePack bytes into a ByteBuffer.
class Encoder {
 public:
  explicit Encoder(ByteBuffer& out) : out_(&out) {}

  void pack_bool(bool b);
  void pack_int(std::int64_t v);
  void pack_uint(std::uint64_t v);
  void pack_string(std::string_view s);
  /// bin family — used for raw sample bytes; zero-copy on the input side.
  void pack_bin(std::span<const std::uint8_t> bytes);
  /// Write an array header; caller then packs `n` elements.
  void pack_array_header(std::size_t n);
  /// Write a map header; caller then packs `n` key/value pairs.
  void pack_map_header(std::size_t n);

 private:
  ByteBuffer* out_;
};

/// Streaming decoder over a byte span. String/bin results are views into
/// the input buffer, so the batch codec's sample payloads decode as
/// zero-copy slices of the received message.
class Decoder {
 public:
  explicit Decoder(std::span<const std::uint8_t> bytes) : reader_(bytes) {}

  /// Typed streaming accessors: each consumes exactly one value and throws
  /// std::runtime_error when the wire type does not match (std::out_of_range
  /// on truncation). Integers decode from any int width: next_uint rejects
  /// a negative value and next_int one above INT64_MAX.
  bool next_bool();
  std::uint64_t next_uint();
  std::int64_t next_int();
  /// View into the input buffer — valid while the input lives.
  std::string_view next_string_view();
  /// View into the input buffer — valid while the input lives.
  std::span<const std::uint8_t> next_bin_view();
  /// Reads an array header; caller then reads that many elements.
  std::size_t next_array_header();
  /// Reads a map header; caller then reads that many key/value pairs.
  std::size_t next_map_header();
  /// Skip one complete value of any type (unknown-key tolerance). Nesting
  /// deeper than 64 levels throws std::runtime_error.
  void skip_value();

 private:
  void skip_value(int depth);
  template <bool AsUint>
  std::int64_t next_int_impl();
  ByteReader reader_;
};

}  // namespace emlio::msgpack
