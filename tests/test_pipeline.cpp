// Tests for tensors, preprocessing ops and the async DALI-style pipeline.
#include <gtest/gtest.h>

#include <array>
#include <utility>

#include "common/rng.h"
#include "pipeline/ops.h"
#include "pipeline/pipeline.h"
#include "workload/sample_generator.h"

namespace emlio::pipeline {
namespace {

TEST(Tensor, ZerosAndIndexing) {
  auto t = Tensor::zeros(4, 5, 3);
  EXPECT_EQ(t.size(), 60u);
  t.at(2, 3, 1) = 7.5f;
  EXPECT_FLOAT_EQ(t.at(2, 3, 1), 7.5f);
  EXPECT_FLOAT_EQ(t.at(0, 0, 0), 0.0f);
}

TEST(Tensor, MeanAndStddev) {
  auto t = Tensor::zeros(1, 4, 1);
  t.data = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(t.mean(), 2.5);
  EXPECT_NEAR(t.stddev(), 1.1180, 1e-3);
}

Tensor gradient_image(std::uint32_t h, std::uint32_t w) {
  auto t = Tensor::zeros(h, w, 3);
  for (std::uint32_t y = 0; y < h; ++y) {
    for (std::uint32_t x = 0; x < w; ++x) {
      for (std::uint32_t c = 0; c < 3; ++c) {
        t.at(y, x, c) = static_cast<float>(x + y * w + c);
      }
    }
  }
  return t;
}

TEST(Ops, DecodeValidSample) {
  workload::SampleGenerator gen(workload::presets::tiny(4, 2000));
  auto bytes = gen.generate(2);
  auto d = decode(bytes, gen.label(2), 16, 16);
  EXPECT_TRUE(d.checksum_ok);
  EXPECT_EQ(d.sample_index, 2u);
  EXPECT_EQ(d.image.height, 16u);
  EXPECT_EQ(d.image.width, 16u);
  EXPECT_EQ(d.image.channels, 3u);
  // Pixels are in [0,255] and not all identical.
  EXPECT_GT(d.image.stddev(), 0.0);
  for (float v : d.image.data) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 255.0f);
  }
}

TEST(Ops, DecodeDeterministic) {
  workload::SampleGenerator gen(workload::presets::tiny(4, 2000));
  auto bytes = gen.generate(1);
  auto a = decode(bytes, 0, 8, 8);
  auto b = decode(bytes, 0, 8, 8);
  EXPECT_EQ(a.image.data, b.image.data);
}

TEST(Ops, DecodeFlagsCorruption) {
  workload::SampleGenerator gen(workload::presets::tiny(4, 2000));
  auto bytes = gen.generate(0);
  bytes[500] ^= 0xFF;
  auto d = decode(bytes, 0);
  EXPECT_FALSE(d.checksum_ok);
}

TEST(Ops, CropExtractsRegion) {
  auto img = gradient_image(10, 10);
  auto out = crop(img, 2, 3, 4, 5);
  EXPECT_EQ(out.height, 4u);
  EXPECT_EQ(out.width, 5u);
  EXPECT_FLOAT_EQ(out.at(0, 0, 0), img.at(2, 3, 0));
  EXPECT_FLOAT_EQ(out.at(3, 4, 2), img.at(5, 7, 2));
}

TEST(Ops, CropBoundsChecked) {
  auto img = gradient_image(10, 10);
  EXPECT_THROW(crop(img, 8, 0, 4, 4), std::out_of_range);
  EXPECT_THROW(crop(img, 0, 8, 4, 4), std::out_of_range);
}

TEST(Ops, MirrorReversesColumns) {
  auto img = gradient_image(3, 4);
  auto out = mirror(img, true);
  for (std::uint32_t y = 0; y < 3; ++y) {
    for (std::uint32_t x = 0; x < 4; ++x) {
      EXPECT_FLOAT_EQ(out.at(y, x, 0), img.at(y, 3 - x, 0));
    }
  }
  auto same = mirror(img, false);
  EXPECT_EQ(same.data, img.data);
}

TEST(Ops, MirrorIsInvolution) {
  auto img = gradient_image(5, 7);
  auto twice = mirror(mirror(img, true), true);
  EXPECT_EQ(twice.data, img.data);
}

TEST(Ops, NormalizeStatistics) {
  auto img = gradient_image(8, 8);
  std::array<float, 3> mean{}, stddev{};
  for (std::uint32_t c = 0; c < 3; ++c) {
    double m = 0;
    for (std::uint32_t y = 0; y < 8; ++y)
      for (std::uint32_t x = 0; x < 8; ++x) m += img.at(y, x, c);
    mean[c] = static_cast<float>(m / 64.0);
    stddev[c] = 10.0f;
  }
  auto out = normalize(img, mean, stddev);
  // Per-channel mean ≈ 0 after normalization.
  for (std::uint32_t c = 0; c < 3; ++c) {
    double m = 0;
    for (std::uint32_t y = 0; y < 8; ++y)
      for (std::uint32_t x = 0; x < 8; ++x) m += out.at(y, x, c);
    EXPECT_NEAR(m / 64.0, 0.0, 1e-4);
  }
}

TEST(Ops, NormalizeValidatesChannelCount) {
  auto img = gradient_image(2, 2);
  std::array<float, 2> wrong{1.0f, 1.0f};
  EXPECT_THROW(normalize(img, wrong, wrong), std::invalid_argument);
}

// ------------------------------------------- bit-identity with reference loops

// decode's pixel gather as first written: one 64-bit division per pixel.
Tensor reference_gather(const std::vector<std::uint8_t>& bytes, std::uint32_t h,
                        std::uint32_t w) {
  auto img = Tensor::zeros(h, w, 3);
  const std::size_t body = workload::SampleLayout::kHeaderBytes;
  if (bytes.size() <= body) return img;
  const std::size_t n = bytes.size() - body;
  for (std::uint32_t y = 0; y < h; ++y) {
    for (std::uint32_t x = 0; x < w; ++x) {
      for (std::uint32_t c = 0; c < 3; ++c) {
        std::size_t k = ((static_cast<std::size_t>(y) * w + x) * 3 + c) * 1315423911u % n;
        img.at(y, x, c) = static_cast<float>(bytes[body + k]);
      }
    }
  }
  return img;
}

TEST(Ops, DecodeMatchesDivisionGatherBitForBit) {
  Rng rng(5);
  std::vector<std::vector<std::uint8_t>> inputs;
  // Undecodable (<= header), n = 1, n = 3 (divides 1315423911), n = 7, n = 284.
  for (std::size_t size : {10, 16, 17, 19, 23, 300}) {
    std::vector<std::uint8_t> bytes(size);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    inputs.push_back(std::move(bytes));
  }
  workload::SampleGenerator gen(workload::presets::imagenet_10gb());  // ~100 KB, jittered
  for (std::uint64_t i = 0; i < 4; ++i) inputs.push_back(gen.generate(i));
  for (const auto& bytes : inputs) {
    for (auto [h, w] : {std::pair{32u, 32u}, std::pair{7u, 5u}}) {
      EXPECT_EQ(decode(bytes, 0, h, w).image.data, reference_gather(bytes, h, w).data)
          << bytes.size() << " bytes, " << h << "x" << w;
    }
  }
}

TEST(Ops, CropMirrorNormalizeMatchReferenceLoops) {
  workload::SampleGenerator gen(workload::presets::tiny(4, 2000));
  for (const Tensor& img : {decode(gen.generate(1), 0, 32, 32).image, gradient_image(5, 7)}) {
    const std::uint32_t h = img.height - 2, w = img.width - 3;
    auto cropped = crop(img, 2, 1, h, w);
    ASSERT_EQ(cropped.size(), static_cast<std::size_t>(h) * w * 3);
    for (std::uint32_t y = 0; y < h; ++y)
      for (std::uint32_t x = 0; x < w; ++x)
        for (std::uint32_t c = 0; c < 3; ++c)
          EXPECT_EQ(cropped.at(y, x, c), img.at(y + 2, x + 1, c));

    for (bool flip : {false, true}) {
      auto mirrored = mirror(img, flip);
      ASSERT_EQ(mirrored.size(), img.size());
      for (std::uint32_t y = 0; y < img.height; ++y)
        for (std::uint32_t x = 0; x < img.width; ++x)
          for (std::uint32_t c = 0; c < 3; ++c)
            EXPECT_EQ(mirrored.at(y, x, c), img.at(y, flip ? img.width - 1 - x : x, c));
    }

    // A zero std divides by 1; 3.7 is no power of two, so a reciprocal
    // multiply would not match the division bit for bit.
    const std::array<float, 3> mean{128.0f, 100.5f, -3.0f}, stddev{64.0f, 0.0f, 3.7f};
    auto normalized = normalize(img, mean, stddev);
    for (std::uint32_t y = 0; y < img.height; ++y)
      for (std::uint32_t x = 0; x < img.width; ++x)
        for (std::uint32_t c = 0; c < 3; ++c) {
          float s = stddev[c] != 0.0f ? stddev[c] : 1.0f;
          EXPECT_EQ(normalized.at(y, x, c), (img.at(y, x, c) - mean[c]) / s);
        }
  }
}

// ------------------------------------------------------------- pipeline

msgpack::WireBatch make_wire_batch(std::uint32_t epoch, std::uint64_t id, std::size_t n) {
  workload::SampleGenerator gen(workload::presets::tiny(64, 1500));
  msgpack::WireBatch b;
  b.epoch = epoch;
  b.batch_id = id;
  for (std::size_t i = 0; i < n; ++i) {
    msgpack::WireSample s;
    s.index = id * 100 + i;
    s.label = gen.label(s.index);
    s.bytes = gen.generate(s.index);
    b.samples.push_back(std::move(s));
  }
  return b;
}

ExternalSource batch_sequence(std::vector<msgpack::WireBatch> batches) {
  auto state = std::make_shared<std::pair<std::vector<msgpack::WireBatch>, std::size_t>>(
      std::move(batches), 0);
  return [state]() -> std::optional<msgpack::WireBatch> {
    if (state->second >= state->first.size()) return std::nullopt;
    return state->first[state->second++];
  };
}

TEST(Pipeline, PreservesBatchOrderWithParallelWorkers) {
  std::vector<msgpack::WireBatch> batches;
  for (std::uint64_t i = 0; i < 12; ++i) batches.push_back(make_wire_batch(0, i, 4));
  PipelineConfig cfg;
  cfg.num_threads = 3;
  cfg.prefetch_depth = 2;
  Pipeline pipe(cfg, batch_sequence(std::move(batches)));
  for (std::uint64_t i = 0; i < 12; ++i) {
    auto out = pipe.run();
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->batch_id, i);
    EXPECT_EQ(out->samples.size(), 4u);
  }
  EXPECT_FALSE(pipe.run().has_value());
  auto stats = pipe.stats();
  EXPECT_EQ(stats.batches, 12u);
  EXPECT_EQ(stats.samples, 48u);
  EXPECT_EQ(stats.checksum_failures, 0u);
}

TEST(Pipeline, AppliesCropAndNormalize) {
  std::vector<msgpack::WireBatch> batches{make_wire_batch(0, 0, 2)};
  Pipeline pipe(PipelineConfig{}, batch_sequence(std::move(batches)));
  auto out = pipe.run();
  ASSERT_TRUE(out.has_value());
  const auto& img = out->samples[0].image;
  EXPECT_EQ(img.height, 28u);
  EXPECT_EQ(img.width, 28u);
  // Normalized values are roughly centred.
  EXPECT_NEAR(img.mean(), 0.0, 1.0);
}

TEST(Pipeline, PassesThroughEpochMarkers) {
  std::vector<msgpack::WireBatch> batches;
  batches.push_back(make_wire_batch(0, 0, 2));
  msgpack::WireBatch marker;
  marker.epoch = 0;
  marker.last = true;
  batches.push_back(marker);
  batches.push_back(make_wire_batch(1, 0, 2));
  Pipeline pipe(PipelineConfig{}, batch_sequence(std::move(batches)));
  EXPECT_FALSE(pipe.run()->epoch_end);
  auto m = pipe.run();
  ASSERT_TRUE(m.has_value());
  EXPECT_TRUE(m->epoch_end);
  EXPECT_EQ(pipe.run()->epoch, 1u);
}

TEST(Pipeline, CountsChecksumFailures) {
  auto batch = make_wire_batch(0, 0, 3);
  // Payload views are immutable; corrupting a byte means materializing a
  // mutable copy and swapping it in.
  auto corrupted = batch.samples[1].bytes.to_vector();
  corrupted[200] ^= 0xFF;
  batch.samples[1].bytes = std::move(corrupted);
  Pipeline pipe(PipelineConfig{}, batch_sequence({batch}));
  auto out = pipe.run();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(pipe.stats().checksum_failures, 1u);
}

TEST(Pipeline, WarmUpFillsPrefetchQueue) {
  std::vector<msgpack::WireBatch> batches;
  for (std::uint64_t i = 0; i < 8; ++i) batches.push_back(make_wire_batch(0, i, 2));
  PipelineConfig cfg;
  cfg.prefetch_depth = 4;
  Pipeline pipe(cfg, batch_sequence(std::move(batches)));
  pipe.warm_up();
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_TRUE(pipe.run().has_value());
}

TEST(Pipeline, ShutdownIsIdempotentAndUnblocks) {
  std::vector<msgpack::WireBatch> batches{make_wire_batch(0, 0, 1)};
  Pipeline pipe(PipelineConfig{}, batch_sequence(std::move(batches)));
  pipe.shutdown();
  pipe.shutdown();
}

TEST(Pipeline, DeterministicAugmentationPerSample) {
  auto batch = make_wire_batch(0, 0, 3);
  PipelineConfig cfg;
  cfg.num_threads = 1;
  Pipeline p1(cfg, batch_sequence({batch}));
  Pipeline p2(cfg, batch_sequence({batch}));
  auto a = p1.run();
  auto b = p2.run();
  ASSERT_TRUE(a && b);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(a->samples[i].image.data, b->samples[i].image.data);
  }
}

}  // namespace
}  // namespace emlio::pipeline
