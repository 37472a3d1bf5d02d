// Tests for dataset specs, the pseudo-JPEG sample generator and on-disk
// materialization.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string_view>

#include "common/xxh64.h"
#include "tfrecord/reader.h"
#include "workload/dataset_spec.h"
#include "workload/materialize.h"
#include "workload/sample_generator.h"

namespace emlio::workload {
namespace {

namespace fs = std::filesystem;

TEST(DatasetSpec, PaperWorkloadSizes) {
  auto imagenet = presets::imagenet_10gb();
  EXPECT_EQ(imagenet.num_samples, 100000u);
  EXPECT_NEAR(imagenet.total_gb(), 10.0, 0.01);  // the 10 GB subset
  auto coco = presets::coco_10gb();
  EXPECT_EQ(coco.bytes_per_sample, 200000u);  // 0.2 MB/sample
  auto synth = presets::synthetic_2mb();
  EXPECT_EQ(synth.bytes_per_sample, 2'000'000u);  // 2 MB records
  EXPECT_EQ(synth.size_jitter, 0.0);
}

TEST(DatasetSpec, LlmTextPreset) {
  auto llm = presets::llm_text_10gb();
  EXPECT_EQ(llm.bytes_per_sample, 4096u);
  EXPECT_NEAR(llm.total_gb(), 10.24, 0.1);
  EXPECT_EQ(llm.size_jitter, 0.0);  // packed sequences are fixed-size
}

TEST(SampleGenerator, DeterministicPerIndex) {
  SampleGenerator gen(presets::tiny(16, 1024));
  auto a = gen.generate(5);
  auto b = gen.generate(5);
  EXPECT_EQ(a, b);
  EXPECT_NE(gen.generate(6), a);
}

TEST(SampleGenerator, DifferentSeedsDiffer) {
  auto spec = presets::tiny(16, 1024);
  SampleGenerator g1(spec, 1), g2(spec, 2);
  EXPECT_NE(g1.generate(0), g2.generate(0));
}

TEST(SampleGenerator, GeneratedSamplesValidate) {
  SampleGenerator gen(presets::tiny(8, 2000));
  for (std::uint64_t i = 0; i < 8; ++i) {
    auto s = gen.generate(i);
    EXPECT_TRUE(SampleGenerator::validate(s)) << i;
    EXPECT_EQ(SampleGenerator::embedded_index(s.data(), s.size()), i);
  }
}

TEST(SampleGenerator, CorruptionDetected) {
  SampleGenerator gen(presets::tiny(4, 1000));
  auto s = gen.generate(0);
  s[s.size() / 2] ^= 0x01;
  EXPECT_FALSE(SampleGenerator::validate(s));
}

TEST(SampleGenerator, HeaderMagicChecked) {
  SampleGenerator gen(presets::tiny(4, 1000));
  auto s = gen.generate(0);
  s[0] = 0x00;
  EXPECT_FALSE(SampleGenerator::validate(s));
}

TEST(SampleGenerator, TooSmallInvalid) {
  std::vector<std::uint8_t> tiny(4, 0xFF);
  EXPECT_FALSE(SampleGenerator::validate(tiny));
  EXPECT_THROW(SampleGenerator::embedded_index(tiny.data(), tiny.size()), std::runtime_error);
}

std::uint64_t xxh64_of(std::string_view s) {
  return xxh64(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
}

TEST(Xxh64, KnownAnswerVectors) {
  EXPECT_EQ(xxh64_of(""), 0xEF46DB3751D8E999ull);
  EXPECT_EQ(xxh64_of("abc"), 0x44BC2CF5AD770999ull);
  // 1024 bytes run the 4-lane stripe loop. The low 32 bits are the zstd
  // frame checksum: `zstd -c --check FILE | tail -c 4` prints 57 df e4 8f.
  std::vector<std::uint8_t> ramp;
  for (int rep = 0; rep < 4; ++rep) {
    for (int b = 0; b < 256; ++b) ramp.push_back(static_cast<std::uint8_t>(b));
  }
  EXPECT_EQ(xxh64(ramp.data(), ramp.size()), 0x6F3914F18FE4DF57ull);
}

TEST(SampleGenerator, EverySingleBitFlipDetected) {
  auto spec = presets::tiny(1, 100);
  spec.size_jitter = 0.0;
  auto s = SampleGenerator(spec).generate(0);
  ASSERT_EQ(s.size(), 100u);
  ASSERT_TRUE(SampleGenerator::validate(s));
  // Header, body and trailer: all 800 bits.
  for (std::size_t bit = 0; bit < s.size() * 8; ++bit) {
    auto flipped = s;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(SampleGenerator::validate(flipped)) << "bit " << bit;
  }
}

TEST(SampleGenerator, SwappedBodyWordsDetected) {
  // 1004 hashed bytes: 31 stripes of 32, then an 8-byte word and 4 bytes.
  auto spec = presets::tiny(1, 1012);
  spec.size_jitter = 0.0;
  auto s = SampleGenerator(spec).generate(0);
  // Adjacent lanes of one stripe, the same lane of two stripes, and a
  // stripe word against the 8-byte word after the stripes.
  const std::size_t pairs[][2] = {{16, 24}, {16, 48}, {40, 992}};
  for (const auto& [a, b] : pairs) {
    ASSERT_NE(std::vector<std::uint8_t>(s.begin() + a, s.begin() + a + 8),
              std::vector<std::uint8_t>(s.begin() + b, s.begin() + b + 8));
    auto swapped = s;
    std::swap_ranges(swapped.begin() + a, swapped.begin() + a + 8, swapped.begin() + b);
    EXPECT_FALSE(SampleGenerator::validate(swapped)) << a << " <-> " << b;
  }
}

TEST(SampleGenerator, SizeJitterStaysNearMean) {
  auto spec = presets::tiny(0, 0);
  spec.bytes_per_sample = 100000;
  spec.size_jitter = 0.25;
  spec.num_samples = 500;
  SampleGenerator gen(spec);
  double sum = 0;
  for (std::uint64_t i = 0; i < 500; ++i) sum += static_cast<double>(gen.sample_bytes(i));
  EXPECT_NEAR(sum / 500.0, 100000.0, 5000.0);
}

TEST(SampleGenerator, FixedSizeWhenNoJitter) {
  auto spec = presets::synthetic_2mb();
  SampleGenerator gen(spec);
  EXPECT_EQ(gen.sample_bytes(0), 2'000'000u);
  EXPECT_EQ(gen.sample_bytes(999), 2'000'000u);
}

TEST(SampleGenerator, LabelsWithinClassCount) {
  auto spec = presets::tiny(0, 0);
  spec.num_classes = 13;
  spec.num_samples = 200;
  spec.bytes_per_sample = 64;
  SampleGenerator gen(spec);
  for (std::uint64_t i = 0; i < 200; ++i) {
    auto l = gen.label(i);
    EXPECT_GE(l, 0);
    EXPECT_LT(l, 13);
  }
}

TEST(Materialize, TfrecordLayoutRoundTrips) {
  auto dir = fs::temp_directory_path() / "emlio_wl_tfr";
  fs::remove_all(dir);
  auto spec = presets::tiny(24, 512);
  auto built = materialize_tfrecord(spec, dir.string(), 3);
  EXPECT_EQ(built.total_records(), 24u);
  SampleGenerator gen(spec);
  for (const auto& idx : built.shards) {
    tfrecord::ShardReader reader(idx);
    for (std::size_t i = 0; i < reader.num_records(); ++i) {
      auto view = reader.record(i, /*verify=*/true);
      EXPECT_TRUE(SampleGenerator::validate(view.data(), view.size()));
      auto sample_idx = SampleGenerator::embedded_index(view.data(), view.size());
      EXPECT_EQ(idx.records[i].sample_index, sample_idx);
      EXPECT_EQ(idx.records[i].label, gen.label(sample_idx));
    }
  }
  fs::remove_all(dir);
}

TEST(Materialize, FileLayoutWritesEverySample) {
  auto dir = fs::temp_directory_path() / "emlio_wl_files";
  fs::remove_all(dir);
  auto spec = presets::tiny(10, 256);
  EXPECT_EQ(materialize_files(spec, dir.string()), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EXPECT_TRUE(fs::exists(dir / sample_filename(i))) << i;
  }
  fs::remove_all(dir);
}

TEST(Materialize, FilenameConvention) {
  EXPECT_EQ(sample_filename(42), "sample_00000042.jpg");
}

}  // namespace
}  // namespace emlio::workload
