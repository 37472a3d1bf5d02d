// Unit + property tests for the MessagePack codec and the batch wire format.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "msgpack/batch_codec.h"
#include "msgpack/msgpack.h"

namespace emlio::msgpack {
namespace {

/// Bytes one Encoder call writes.
template <typename Pack>
std::vector<std::uint8_t> enc(Pack&& pack) {
  ByteBuffer buf;
  Encoder e(buf);
  pack(e);
  return buf.take();
}

std::vector<std::uint8_t> enc_uint(std::uint64_t v) {
  return enc([&](Encoder& e) { e.pack_uint(v); });
}
std::vector<std::uint8_t> enc_int(std::int64_t v) {
  return enc([&](Encoder& e) { e.pack_int(v); });
}
std::vector<std::uint8_t> enc_string(const std::string& s) {
  return enc([&](Encoder& e) { e.pack_string(s); });
}
std::vector<std::uint8_t> enc_bin(std::size_t n) {
  const std::vector<std::uint8_t> bytes(n, 0);
  return enc([&](Encoder& e) { e.pack_bin(bytes); });
}

TEST(Msgpack, BoolWireBytes) {
  EXPECT_EQ(enc([](Encoder& e) { e.pack_bool(true); }), (std::vector<std::uint8_t>{0xC3}));
  EXPECT_EQ(enc([](Encoder& e) { e.pack_bool(false); }), (std::vector<std::uint8_t>{0xC2}));
}

TEST(Msgpack, PositiveFixintWire) {
  EXPECT_EQ(enc_uint(0), (std::vector<std::uint8_t>{0x00}));
  EXPECT_EQ(enc_uint(127), (std::vector<std::uint8_t>{0x7F}));
  EXPECT_EQ(enc_int(127), (std::vector<std::uint8_t>{0x7F}));  // non-negative ints pack as uint
}

TEST(Msgpack, NegativeFixintWire) {
  EXPECT_EQ(enc_int(-1), (std::vector<std::uint8_t>{0xFF}));
  EXPECT_EQ(enc_int(-32), (std::vector<std::uint8_t>{0xE0}));
}

TEST(Msgpack, IntWidthSelection) {
  EXPECT_EQ(enc_uint(128)[0], 0xCC);                   // uint8
  EXPECT_EQ(enc_uint(256)[0], 0xCD);                   // uint16
  EXPECT_EQ(enc_uint(70000)[0], 0xCE);                 // uint32
  EXPECT_EQ(enc_uint(std::uint64_t(1) << 40)[0], 0xCF);  // uint64
  EXPECT_EQ(enc_int(-33)[0], 0xD0);                    // int8
  EXPECT_EQ(enc_int(-1000)[0], 0xD1);                  // int16
  EXPECT_EQ(enc_int(-100000)[0], 0xD2);                // int32
  EXPECT_EQ(enc_int(std::int64_t(-1) << 40)[0], 0xD3);   // int64
}

TEST(Msgpack, FixstrWire) {
  auto bytes = enc_string("abc");
  EXPECT_EQ(bytes, (std::vector<std::uint8_t>{0xA3, 'a', 'b', 'c'}));
}

TEST(Msgpack, StringWidths) {
  EXPECT_EQ(enc_string(std::string(40, 'x'))[0], 0xD9);     // str8
  EXPECT_EQ(enc_string(std::string(300, 'x'))[0], 0xDA);    // str16
  EXPECT_EQ(enc_string(std::string(70000, 'x'))[0], 0xDB);  // str32
}

TEST(Msgpack, BinWidths) {
  EXPECT_EQ(enc_bin(10)[0], 0xC4);
  EXPECT_EQ(enc_bin(300)[0], 0xC5);
  EXPECT_EQ(enc_bin(70000)[0], 0xC6);
}

TEST(Msgpack, ArrayAndMapHeaders) {
  EXPECT_EQ(enc([](Encoder& e) { e.pack_array_header(0); }), (std::vector<std::uint8_t>{0x90}));
  EXPECT_EQ(enc([](Encoder& e) { e.pack_array_header(20); })[0], 0xDC);
  EXPECT_EQ(enc([](Encoder& e) { e.pack_array_header(70000); })[0], 0xDD);
  EXPECT_EQ(enc([](Encoder& e) { e.pack_map_header(1); }), (std::vector<std::uint8_t>{0x81}));
  EXPECT_EQ(enc([](Encoder& e) { e.pack_map_header(20); })[0], 0xDE);
  EXPECT_EQ(enc([](Encoder& e) { e.pack_map_header(70000); })[0], 0xDF);
}

TEST(Msgpack, RoundTripScalars) {
  for (std::int64_t v : {0LL, 1LL, -1LL, 127LL, 128LL, -32LL, -33LL, 65535LL, -65536LL,
                         1LL << 40, -(1LL << 40)}) {
    auto bytes = enc_int(v);
    Decoder dec(bytes);
    EXPECT_EQ(dec.next_int(), v) << v;
  }
}

TEST(Msgpack, RoundTripUint64Max) {
  std::uint64_t big = ~0ull;
  auto bytes = enc_uint(big);
  EXPECT_EQ(Decoder(bytes).next_uint(), big);
  // Above INT64_MAX the value has no signed reading.
  EXPECT_THROW(Decoder(bytes).next_int(), std::runtime_error);
}

TEST(Msgpack, DecodeTruncatedThrows) {
  auto bytes = enc_string("hello world");
  // Clamped subtraction: GCC 12 flags a bare size()-3 resize as a possible
  // wraparound (stringop-overflow) under -O3 -fsanitize=address.
  bytes.resize(bytes.size() < 3 ? 0 : bytes.size() - 3);
  EXPECT_THROW(Decoder(bytes).next_string_view(), std::out_of_range);
  EXPECT_THROW(Decoder(bytes).skip_value(), std::out_of_range);
}

TEST(Msgpack, TypedAccessorsRejectWrongWireType) {
  auto five = enc_int(5);
  EXPECT_THROW(Decoder(five).next_string_view(), std::runtime_error);
  EXPECT_THROW(Decoder(five).next_map_header(), std::runtime_error);
  EXPECT_THROW(Decoder(five).next_bin_view(), std::runtime_error);
  EXPECT_THROW(Decoder(five).next_bool(), std::runtime_error);
  EXPECT_THROW(Decoder(enc_int(-1)).next_uint(), std::runtime_error);
  EXPECT_THROW(Decoder(enc_string("x")).next_int(), std::runtime_error);
  EXPECT_THROW(Decoder(enc_string("x")).next_array_header(), std::runtime_error);
}

TEST(Msgpack, SkipValueCoversNilAndFloats) {
  // The encoder never writes nil or floats, but a newer sender's unknown
  // keys may carry them: skip_value must step over each exactly.
  const std::vector<std::uint8_t> bytes{
      0xC0,                                            // nil
      0xCA, 0x3F, 0x80, 0x00, 0x00,                    // float32 1.0
      0xCB, 0x40, 0x09, 0x21, 0xFB, 0x54, 0x44, 0x2D, 0x18,  // float64 pi
      0x07};                                           // fixint 7
  Decoder dec(bytes);
  dec.skip_value();
  dec.skip_value();
  dec.skip_value();
  EXPECT_EQ(dec.next_uint(), 7u);
  EXPECT_THROW(Decoder(std::vector<std::uint8_t>{0xC1}).skip_value(), std::runtime_error);
}

// Property-style round trip: a random sequence of typed values, nested in
// arrays and maps, must read back value-for-value through the typed
// accessors, and skip_value must step over the same bytes one value at a
// time.
class MsgpackPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

struct Item {
  enum Kind { kBool, kInt, kUint, kString, kBin, kArray, kMap } kind = kBool;
  std::int64_t i = 0;
  std::uint64_t u = 0;
  std::string str;
  std::vector<std::uint8_t> bin;
  std::vector<Item> children;  // kArray elements; kMap alternates key, value
};

Item random_item(Rng& rng, int depth) {
  Item it;
  it.kind = static_cast<Item::Kind>(rng.uniform(depth > 3 ? 5 : 7));
  switch (it.kind) {
    case Item::kBool: it.u = rng.uniform(2); break;
    case Item::kInt: it.i = static_cast<std::int64_t>(rng()) >> rng.uniform(64); break;
    case Item::kUint: it.u = rng() >> rng.uniform(64); break;
    case Item::kString:
      for (std::uint64_t i = rng.uniform(40); i > 0; --i)
        it.str += static_cast<char>('a' + rng.uniform(26));
      break;
    case Item::kBin:
      it.bin.resize(rng.uniform(64));
      for (auto& x : it.bin) x = static_cast<std::uint8_t>(rng());
      break;
    case Item::kArray:
      for (std::uint64_t i = rng.uniform(5); i > 0; --i)
        it.children.push_back(random_item(rng, depth + 1));
      break;
    case Item::kMap:
      for (std::uint64_t i = rng.uniform(5); i > 0; --i) {
        Item key;
        key.kind = Item::kString;
        key.str = "k";
        key.str += std::to_string(rng.uniform(100));
        it.children.push_back(std::move(key));
        it.children.push_back(random_item(rng, depth + 1));
      }
      break;
  }
  return it;
}

void pack_item(Encoder& e, const Item& it) {
  switch (it.kind) {
    case Item::kBool: e.pack_bool(it.u != 0); break;
    case Item::kInt: e.pack_int(it.i); break;
    case Item::kUint: e.pack_uint(it.u); break;
    case Item::kString: e.pack_string(it.str); break;
    case Item::kBin: e.pack_bin(it.bin); break;
    case Item::kArray: e.pack_array_header(it.children.size()); break;
    case Item::kMap: e.pack_map_header(it.children.size() / 2); break;
  }
  for (const auto& child : it.children) pack_item(e, child);
}

void expect_item(Decoder& d, const Item& it) {
  switch (it.kind) {
    case Item::kBool: EXPECT_EQ(d.next_bool(), it.u != 0); break;
    case Item::kInt: EXPECT_EQ(d.next_int(), it.i); break;
    case Item::kUint: EXPECT_EQ(d.next_uint(), it.u); break;
    case Item::kString: EXPECT_EQ(d.next_string_view(), it.str); break;
    case Item::kBin: {
      auto view = d.next_bin_view();
      EXPECT_EQ(std::vector<std::uint8_t>(view.begin(), view.end()), it.bin);
      break;
    }
    case Item::kArray: EXPECT_EQ(d.next_array_header(), it.children.size()); break;
    case Item::kMap: EXPECT_EQ(d.next_map_header(), it.children.size() / 2); break;
  }
  for (const auto& child : it.children) expect_item(d, child);
}

TEST_P(MsgpackPropertyTest, RandomTypedValuesRoundTrip) {
  Rng rng(GetParam());
  std::vector<Item> items;
  ByteBuffer buf;
  Encoder e(buf);
  for (int i = 0; i < 50; ++i) {
    items.push_back(random_item(rng, 0));
    pack_item(e, items.back());
  }
  Decoder typed(buf.view());
  for (const auto& it : items) expect_item(typed, it);
  EXPECT_THROW(typed.skip_value(), std::out_of_range);  // all input consumed

  Decoder skipper(buf.view());
  for (std::size_t i = 0; i < items.size(); ++i) skipper.skip_value();
  EXPECT_THROW(skipper.skip_value(), std::out_of_range);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MsgpackPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

// ------------------------------------------------------------ batch codec

msgpack::WireBatch make_batch(std::size_t samples, std::size_t bytes_each) {
  WireBatch b;
  b.epoch = 2;
  b.batch_id = 77;
  b.node_id = 1;
  b.shard_id = 3;
  Rng rng(5);
  for (std::size_t i = 0; i < samples; ++i) {
    WireSample s;
    s.index = 1000 + i;
    s.label = static_cast<std::int64_t>(i % 10);
    std::vector<std::uint8_t> payload(bytes_each);
    for (auto& x : payload) x = static_cast<std::uint8_t>(rng());
    s.bytes = std::move(payload);
    b.samples.push_back(std::move(s));
  }
  return b;
}

// The batch schema as an ordered list of (key, packer) pairs, so a test can
// replace, drop or add one field and re-encode with the production Encoder.
using Field = std::pair<std::string, std::function<void(Encoder&)>>;

std::vector<Field> batch_fields(const WireBatch& b) {
  return {
      {"batch", [=](Encoder& e) { e.pack_uint(b.batch_id); }},
      {"epoch", [=](Encoder& e) { e.pack_uint(b.epoch); }},
      {"last", [=](Encoder& e) { e.pack_bool(b.last); }},
      {"node", [=](Encoder& e) { e.pack_uint(b.node_id); }},
      {"nsent", [=](Encoder& e) { e.pack_uint(b.sent_count); }},
      {"samples",
       [=](Encoder& e) {
         e.pack_array_header(b.samples.size());
         for (const auto& s : b.samples) {
           e.pack_array_header(3);
           e.pack_uint(s.index);
           e.pack_int(s.label);
           e.pack_bin(s.bytes);
         }
       }},
      {"shard", [=](Encoder& e) { e.pack_uint(b.shard_id); }},
      {"v", [](Encoder& e) { e.pack_uint(1); }},
  };
}

void set_field(std::vector<Field>& fields, const std::string& key,
               std::function<void(Encoder&)> pack) {
  for (auto& f : fields) {
    if (f.first == key) {
      f.second = std::move(pack);
      return;
    }
  }
  fields.emplace_back(key, std::move(pack));
}

void erase_field(std::vector<Field>& fields, const std::string& key) {
  std::erase_if(fields, [&](const Field& f) { return f.first == key; });
}

std::vector<std::uint8_t> encode_fields(const std::vector<Field>& fields) {
  return enc([&](Encoder& e) {
    e.pack_map_header(fields.size());
    for (const auto& [key, pack] : fields) {
      e.pack_string(key);
      pack(e);
    }
  });
}

TEST(BatchCodec, EncodeMatchesTheDocumentedSchemaByteForByte) {
  auto b = make_batch(3, 20);
  EXPECT_EQ(BatchCodec::encode(b).to_vector(), encode_fields(batch_fields(b)));
  b.trace_origin_ns = 123456789;
  auto fields = batch_fields(b);
  fields.insert(fields.end() - 1, Field{"t0", [](Encoder& e) { e.pack_uint(123456789); }});
  EXPECT_EQ(BatchCodec::encode(b).to_vector(), encode_fields(fields));
}

TEST(BatchCodec, RoundTrip) {
  auto b = make_batch(8, 100);
  auto decoded = BatchCodec::decode(BatchCodec::encode(b));
  EXPECT_EQ(decoded, b);
}

TEST(BatchCodec, EmptyBatchRoundTrip) {
  WireBatch b;
  b.epoch = 1;
  auto decoded = BatchCodec::decode(BatchCodec::encode(b));
  EXPECT_EQ(decoded, b);
}

TEST(BatchCodec, SentinelMarksEpochEnd) {
  auto s = BatchCodec::make_sentinel(4, 9);
  EXPECT_TRUE(s.last);
  EXPECT_EQ(s.node_id, 4u);
  EXPECT_EQ(s.epoch, 9u);
  EXPECT_TRUE(s.samples.empty());
  auto decoded = BatchCodec::decode(BatchCodec::encode(s));
  EXPECT_TRUE(decoded.last);
}

TEST(BatchCodec, PayloadBytesSumsSamples) {
  auto b = make_batch(4, 250);
  EXPECT_EQ(b.payload_bytes(), 1000u);
}

TEST(BatchCodec, EncodingOverheadIsSmall) {
  auto b = make_batch(32, 4096);
  auto encoded = BatchCodec::encode(b);
  // Per-sample overhead must stay far below the paper's point that msgpack
  // is "compact": < 32 bytes per sample on top of the payload.
  EXPECT_LT(encoded.size(), b.payload_bytes() + 32 * b.samples.size() + 128);
}

TEST(BatchCodec, RejectsGarbage) {
  std::vector<std::uint8_t> garbage{0x81, 0xA1, 0x76, 0x01};  // {"v": 1} missing keys
  EXPECT_THROW(BatchCodec::decode(garbage), std::runtime_error);
  EXPECT_THROW(BatchCodec::decode(std::vector<std::uint8_t>{0x01}), std::runtime_error);
}

TEST(BatchCodec, RejectsWrongVersion) {
  auto fields = batch_fields(make_batch(1, 4));
  set_field(fields, "v", [](Encoder& e) { e.pack_uint(99); });
  EXPECT_THROW(BatchCodec::decode(encode_fields(fields)), std::runtime_error);
}

TEST(BatchCodec, LargeSampleRoundTrip) {
  auto b = make_batch(1, 2'000'000);  // the synthetic 2 MB record
  auto decoded = BatchCodec::decode(BatchCodec::encode(b));
  EXPECT_EQ(decoded.samples[0].bytes.size(), 2'000'000u);
  EXPECT_EQ(decoded, b);
}

TEST(BatchCodec, RejectsTruncationAtEveryPrefixLength) {
  // Property: EVERY strict prefix of a valid encoding must throw (truncation
  // is detected wherever the cut lands: mid-header, mid-key, mid-bin).
  auto payload = BatchCodec::encode(make_batch(3, 50));
  auto bytes = payload.to_vector();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::span<const std::uint8_t> prefix(bytes.data(), len);
    EXPECT_THROW(BatchCodec::decode(prefix), std::exception) << "prefix length " << len;
  }
  // The full message still decodes.
  EXPECT_NO_THROW(BatchCodec::decode(payload));
}

// Fuzz regression: a length header may announce up to 4 GiB of payload that
// the buffer does not contain. Truncation must surface as the ByteReader's
// bounds check, never as a huge allocation or an out-of-bounds read — on
// skip_value, on the typed accessors and on the batch codec's key and
// sample paths.
TEST(Msgpack, HugeLengthHeadersRejectedBeforeAllocation) {
  // str32 / bin32 / array32 / map32 announcing 0xFFFFFFFF elements, then EOF.
  for (std::uint8_t tag : {0xDB, 0xC6, 0xDD, 0xDF}) {
    std::vector<std::uint8_t> bytes{tag, 0xFF, 0xFF, 0xFF, 0xFF};
    EXPECT_THROW(Decoder(bytes).skip_value(), std::exception) << "tag 0x" << std::hex << int(tag);
    EXPECT_THROW(BatchCodec::decode(bytes), std::exception) << "tag 0x" << std::hex << int(tag);
  }
  const std::vector<std::uint8_t> str32{0xDB, 0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_THROW(Decoder(str32).next_string_view(), std::out_of_range);
  const std::vector<std::uint8_t> bin32{0xC6, 0xFF, 0xFF, 0xFF, 0xFF};
  EXPECT_THROW(Decoder(bin32).next_bin_view(), std::out_of_range);

  // A batch whose "samples" array announces 2^32 - 1 tuples: the codec's
  // reserve is capped and the first missing tuple throws.
  auto fields = batch_fields(make_batch(0, 0));
  set_field(fields, "samples", [](Encoder& e) { e.pack_array_header(0xFFFFFFFFu); });
  EXPECT_THROW(BatchCodec::decode(encode_fields(fields)), std::out_of_range);
  // A root map announcing 2^32 - 1 keys.
  const std::vector<std::uint8_t> huge_map{0xDF, 0xFF, 0xFF, 0xFF, 0xFF, 0xA1, 'v', 0x01};
  EXPECT_THROW(BatchCodec::decode(huge_map), std::out_of_range);
}

// Fuzz regression: nesting is recursion, so skip_value bounds depth (a
// [[[[... bomb must throw, not exhaust the stack) — also when the bomb sits
// under an unknown key of an otherwise valid batch.
TEST(Msgpack, NestingDepthCappedOnDecodeAndSkip) {
  std::vector<std::uint8_t> bomb(600, 0x91);  // 600 nested one-element arrays
  bomb.push_back(0xC0);
  EXPECT_THROW(Decoder(bomb).skip_value(), std::runtime_error);
  // 16 levels is comfortably inside the cap.
  std::vector<std::uint8_t> shallow(16, 0x91);
  shallow.push_back(0xC0);
  EXPECT_NO_THROW(Decoder(shallow).skip_value());

  auto fields = batch_fields(make_batch(1, 4));
  set_field(fields, "future_field", [&](Encoder& e) {
    for (int i = 0; i < 600; ++i) e.pack_array_header(1);
    e.pack_bool(true);
  });
  EXPECT_THROW(BatchCodec::decode(encode_fields(fields)), std::runtime_error);
  set_field(fields, "future_field", [&](Encoder& e) {
    for (int i = 0; i < 16; ++i) e.pack_array_header(1);
    e.pack_bool(true);
  });
  EXPECT_EQ(BatchCodec::decode(encode_fields(fields)).samples.size(), 1u);
}

// Fuzz regression: a map whose key slot holds a non-string value, or that
// ends before its announced pairs, must be a clean error.
TEST(Msgpack, TruncatedAndNonStringKeyMapsRejected) {
  const std::vector<std::uint8_t> int_key{0x81, 0x07, 0xC0};  // {7: nil}
  EXPECT_THROW(BatchCodec::decode(int_key), std::runtime_error);
  const std::vector<std::uint8_t> half_pair{0x81, 0xA1, 'k'};  // {"k": <EOF>
  EXPECT_THROW(BatchCodec::decode(half_pair), std::exception);
  EXPECT_THROW(Decoder(half_pair).skip_value(), std::out_of_range);
  const std::vector<std::uint8_t> missing_entry{0x82, 0xA1, 'k', 0xC0};  // 2 pairs, 1 present
  EXPECT_THROW(BatchCodec::decode(missing_entry), std::exception);
  EXPECT_THROW(Decoder(missing_entry).skip_value(), std::out_of_range);
}

TEST(BatchCodec, RejectsMalformedSchemaVariants) {
  const auto base = batch_fields(make_batch(2, 8));
  auto corrupted = [&](auto&& mutate) {
    auto fields = base;
    mutate(fields);
    return encode_fields(fields);
  };

  // Root is not a map.
  EXPECT_THROW(BatchCodec::decode(enc_int(7)), std::runtime_error);
  // Field with the wrong wire type.
  EXPECT_THROW(BatchCodec::decode(corrupted([](auto& f) {
                 set_field(f, "epoch", [](Encoder& e) { e.pack_string("not-a-uint"); });
               })),
               std::runtime_error);
  EXPECT_THROW(BatchCodec::decode(corrupted([](auto& f) {
                 set_field(f, "last", [](Encoder& e) { e.pack_int(1); });
               })),
               std::runtime_error);
  EXPECT_THROW(BatchCodec::decode(corrupted([](auto& f) {
                 set_field(f, "samples", [](Encoder& e) { e.pack_string("nope"); });
               })),
               std::runtime_error);
  // Missing required field.
  EXPECT_THROW(BatchCodec::decode(corrupted([](auto& f) { erase_field(f, "nsent"); })),
               std::runtime_error);
  // Sample tuple with the wrong arity.
  EXPECT_THROW(BatchCodec::decode(corrupted([](auto& f) {
                 set_field(f, "samples", [](Encoder& e) {
                   e.pack_array_header(1);
                   e.pack_array_header(2);
                   e.pack_uint(1);
                   e.pack_int(2);
                 });
               })),
               std::runtime_error);
  // Sample bytes that are not a bin.
  EXPECT_THROW(BatchCodec::decode(corrupted([](auto& f) {
                 set_field(f, "samples", [](Encoder& e) {
                   e.pack_array_header(1);
                   e.pack_array_header(3);
                   e.pack_uint(1);
                   e.pack_int(2);
                   e.pack_string("str");
                 });
               })),
               std::runtime_error);
}

TEST(BatchCodec, WrongVersionDiagnosedBeforeSchemaDrift) {
  // A v99 sender that ALSO changed a field's type must be reported as a
  // version mismatch, not as the schema error the drift causes first.
  auto fields = batch_fields(make_batch(1, 4));
  set_field(fields, "v", [](Encoder& e) { e.pack_uint(99); });
  set_field(fields, "last", [](Encoder& e) { e.pack_int(1); });  // schema drift: bool → int
  try {
    BatchCodec::decode(encode_fields(fields));
    FAIL() << "expected decode to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("wire version 99"), std::string::npos) << e.what();
  }
}

TEST(BatchCodec, RejectsDuplicateKeys) {
  // A duplicated "samples" key must not concatenate into a 2N-sample batch.
  auto b = make_batch(2, 8);
  ByteBuffer raw;
  Encoder enc(raw);
  enc.pack_map_header(9);
  auto pack_samples = [&] {
    enc.pack_string("samples");
    enc.pack_array_header(b.samples.size());
    for (const auto& s : b.samples) {
      enc.pack_array_header(3);
      enc.pack_uint(s.index);
      enc.pack_int(s.label);
      enc.pack_bin(s.bytes);
    }
  };
  enc.pack_string("batch");
  enc.pack_uint(b.batch_id);
  enc.pack_string("epoch");
  enc.pack_uint(b.epoch);
  enc.pack_string("last");
  enc.pack_bool(b.last);
  enc.pack_string("node");
  enc.pack_uint(b.node_id);
  enc.pack_string("nsent");
  enc.pack_uint(b.sent_count);
  pack_samples();
  pack_samples();  // duplicate!
  enc.pack_string("shard");
  enc.pack_uint(b.shard_id);
  enc.pack_string("v");
  enc.pack_uint(1);
  EXPECT_THROW(BatchCodec::decode(raw.view()), std::runtime_error);
}

TEST(BatchCodec, ToleratesUnknownKeys) {
  // Forward compatibility: an extra key from a newer sender is skipped,
  // whatever its type — nil and floats included, which this encoder never
  // writes.
  auto fields = batch_fields(make_batch(1, 4));
  set_field(fields, "future_field", [](Encoder& e) {
    e.pack_array_header(2);
    e.pack_string("x");
    e.pack_int(1);
  });
  EXPECT_EQ(BatchCodec::decode(encode_fields(fields)).samples.size(), 1u);

  auto bytes = encode_fields(batch_fields(make_batch(1, 4)));
  bytes[0] += 2;  // fixmap: two more pairs follow
  const std::uint8_t extra[] = {0xA1, 'n', 0xC0, 0xA1, 'f', 0xCB};
  bytes.insert(bytes.end(), std::begin(extra), std::end(extra));
  bytes.insert(bytes.end(), 8, 0x40);
  EXPECT_EQ(BatchCodec::decode(bytes).samples.size(), 1u);
}

TEST(BatchCodec, DecodeIsZeroCopyIntoSharedPayload) {
  auto b = make_batch(8, 4096);
  Payload encoded = BatchCodec::encode(b);
  PayloadCounters::reset();
  auto decoded = BatchCodec::decode(encoded);
  // No deliberate deep copies happened anywhere in the decode path...
  EXPECT_EQ(PayloadCounters::bytes_copied.load(), 0u);
  ASSERT_EQ(decoded.samples.size(), 8u);
  for (const auto& s : decoded.samples) {
    // ...every sample shares the message's refcounted storage...
    EXPECT_TRUE(s.bytes.shares_storage_with(encoded));
    // ...and points INTO the encoded buffer.
    EXPECT_GE(s.bytes.data(), encoded.data());
    EXPECT_LE(s.bytes.data() + s.bytes.size(), encoded.data() + encoded.size());
  }
  // 1 handle + 8 sample views.
  EXPECT_EQ(encoded.use_count(), 9);
}

TEST(BatchCodec, PooledEncodeRecyclesBuffers) {
  auto pool = BufferPool::create(4);
  auto b = make_batch(4, 1000);
  for (int round = 0; round < 5; ++round) {
    Payload p = BatchCodec::encode(b, *pool);
    EXPECT_EQ(BatchCodec::decode(p), b);
  }  // payload dropped each round → storage returns to the pool
  auto stats = pool->stats();
  EXPECT_EQ(stats.allocated, 1u);  // first round allocates...
  EXPECT_EQ(stats.reused, 4u);     // ...the rest reuse it
  EXPECT_EQ(stats.idle, 1u);
}

TEST(BatchCodec, PooledBufferSurvivesPoolDestruction) {
  Payload p;
  {
    auto pool = BufferPool::create(4);
    p = BatchCodec::encode(make_batch(1, 32), *pool);
  }  // pool gone; payload must remain valid (storage frees on last drop)
  EXPECT_EQ(BatchCodec::decode(p).samples.size(), 1u);
}

TEST(BatchCodec, EncodeAcceptsBorrowedMmapStyleViews) {
  // The daemon encodes samples whose bytes borrow mmap'd memory; the wire
  // bytes must be identical to encoding owned copies of the same data.
  std::vector<std::uint8_t> backing(512);
  for (std::size_t i = 0; i < backing.size(); ++i) backing[i] = static_cast<std::uint8_t>(i);

  WireBatch borrowed;
  WireSample s1;
  s1.index = 1;
  s1.bytes = std::span<const std::uint8_t>(backing.data(), 256);  // borrows
  borrowed.samples.push_back(std::move(s1));

  WireBatch owned;
  WireSample s2;
  s2.index = 1;
  s2.bytes = std::vector<std::uint8_t>(backing.begin(), backing.begin() + 256);  // adopts
  owned.samples.push_back(std::move(s2));

  EXPECT_FALSE(borrowed.samples[0].bytes.owns_storage());
  EXPECT_TRUE(owned.samples[0].bytes.owns_storage());
  EXPECT_EQ(BatchCodec::encode(borrowed), BatchCodec::encode(owned).view());
}

class BatchSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BatchSizeSweep, RoundTripAtSize) {
  auto b = make_batch(GetParam(), 64);
  EXPECT_EQ(BatchCodec::decode(BatchCodec::encode(b)), b);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BatchSizeSweep, ::testing::Values(1, 2, 15, 16, 17, 128, 300));

}  // namespace
}  // namespace emlio::msgpack
