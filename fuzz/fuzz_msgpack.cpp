// Fuzz the MessagePack decoder and the batch codec on top of it.
//
// Every byte of input is attacker-controlled wire data as far as the
// receiver is concerned (a confused peer, a corrupted frame, a hostile
// sender). The contract under test: decoding either succeeds or throws
// std::runtime_error (malformed) / std::out_of_range (truncated) — it never
// crashes, hangs, overflows, or reads outside the input span.
#include <cstdint>
#include <span>
#include <stdexcept>

#include "msgpack/batch_codec.h"
#include "msgpack/msgpack.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::span<const std::uint8_t> bytes(data, size);

  // skip_value: the unknown-key tolerance path walks every wire type
  // (nil and floats included) without materializing values and must bound
  // its recursion. Each call consumes at least one byte, so the loop ends
  // with the out_of_range that reading past the input raises.
  try {
    emlio::msgpack::Decoder dec(bytes);
    for (;;) dec.skip_value();
  } catch (const std::runtime_error&) {
  } catch (const std::out_of_range&) {
  }

  // Batch codec: schema-checked decode with zero-copy sample views into the
  // input buffer.
  try {
    emlio::msgpack::WireBatch batch = emlio::msgpack::BatchCodec::decode(bytes);
    (void)batch.payload_bytes();
  } catch (const std::runtime_error&) {
  } catch (const std::out_of_range&) {
  }
  return 0;
}

#include "fuzz_driver.h"
