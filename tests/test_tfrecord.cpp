// Unit tests for TFRecord framing, writer/reader, shard index and builder.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "common/rng.h"
#include "tfrecord/dataset_builder.h"
#include "tfrecord/reader.h"
#include "tfrecord/record_io.h"
#include "tfrecord/shard_index.h"
#include "tfrecord/writer.h"

namespace emlio::tfrecord {
namespace {

namespace fs = std::filesystem;

class TfrecordTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() / ("emlio_tfr_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  fs::path dir_;
};

std::vector<std::uint8_t> payload(std::size_t n, std::uint8_t fill) {
  return std::vector<std::uint8_t>(n, fill);
}

TEST(RecordIo, FramedSizeAddsOverhead) {
  EXPECT_EQ(framed_size(0), 16u);
  EXPECT_EQ(framed_size(100), 116u);
}

TEST(RecordIo, WriteReadRoundTrip) {
  ByteBuffer buf;
  auto data = payload(37, 0xAB);
  write_record(data, buf);
  auto parsed = read_record(buf.view());
  EXPECT_EQ(parsed.framed_size, framed_size(37));
  EXPECT_EQ(std::vector<std::uint8_t>(parsed.payload.begin(), parsed.payload.end()), data);
}

TEST(RecordIo, DetectsPayloadCorruption) {
  ByteBuffer buf;
  write_record(payload(32, 1), buf);
  buf.data()[20] ^= 0xFF;  // flip a payload byte
  EXPECT_THROW(read_record(buf.view()), std::runtime_error);
  // Unchecked read skips CRC verification by design.
  EXPECT_NO_THROW(read_record_unchecked(buf.view()));
}

TEST(RecordIo, DetectsLengthCorruption) {
  ByteBuffer buf;
  write_record(payload(32, 1), buf);
  buf.data()[0] ^= 0x01;  // flip a length byte
  EXPECT_THROW(read_record(buf.view()), std::runtime_error);
}

TEST(RecordIo, TruncatedInputThrows) {
  ByteBuffer buf;
  write_record(payload(32, 1), buf);
  auto view = buf.view().subspan(0, buf.size() - 4);
  EXPECT_THROW(read_record(view), std::out_of_range);
}

TEST(RecordIo, BackToBackRecordsParseSequentially) {
  ByteBuffer buf;
  write_record(payload(10, 1), buf);
  write_record(payload(20, 2), buf);
  auto first = read_record(buf.view());
  auto second = read_record(buf.view().subspan(first.framed_size));
  EXPECT_EQ(first.payload.size(), 10u);
  EXPECT_EQ(second.payload.size(), 20u);
  EXPECT_EQ(second.payload[0], 2);
}

TEST_F(TfrecordTest, WriterProducesIndexAndFile) {
  ShardWriter w(3, path("s.tfrecord"));
  auto e0 = w.append(payload(100, 7), 42, 1000);
  auto e1 = w.append(payload(50, 8), 43, 1001);
  EXPECT_EQ(e0.offset, 0u);
  EXPECT_EQ(e1.offset, framed_size(100));
  auto idx = w.finish();
  EXPECT_EQ(idx.shard_id, 3u);
  EXPECT_EQ(idx.num_records(), 2u);
  EXPECT_EQ(idx.file_bytes, framed_size(100) + framed_size(50));
  EXPECT_EQ(fs::file_size(path("s.tfrecord")), idx.file_bytes);
}

TEST_F(TfrecordTest, WriterRejectsUseAfterFinish) {
  ShardWriter w(0, path("s.tfrecord"));
  w.append(payload(1, 0), 0, 0);
  w.finish();
  EXPECT_THROW(w.append(payload(1, 0), 0, 1), std::runtime_error);
  EXPECT_THROW(w.finish(), std::runtime_error);
}

TEST_F(TfrecordTest, ReaderReadsRecordsAndSlices) {
  ShardWriter w(0, path("s.tfrecord"));
  for (int i = 0; i < 10; ++i) {
    w.append(payload(10 + static_cast<std::size_t>(i), static_cast<std::uint8_t>(i)), i, 100 + i);
  }
  ShardReader reader(w.finish());
  EXPECT_EQ(reader.num_records(), 10u);
  auto r3 = reader.record(3, /*verify=*/true);
  EXPECT_EQ(r3.size(), 13u);
  EXPECT_EQ(r3[0], 3);

  auto views = reader.slice(2, 5, /*verify=*/true);
  ASSERT_EQ(views.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(views[static_cast<std::size_t>(i)][0], i + 2);
    EXPECT_EQ(views[static_cast<std::size_t>(i)].size(), 12u + static_cast<std::size_t>(i));
  }
}

TEST_F(TfrecordTest, SliceBoundsChecked) {
  ShardWriter w(0, path("s.tfrecord"));
  for (int i = 0; i < 4; ++i) w.append(payload(8, 0), 0, static_cast<std::uint64_t>(i));
  ShardReader reader(w.finish());
  EXPECT_THROW(reader.slice(2, 3), std::out_of_range);
  EXPECT_THROW(reader.slice(0, 0), std::out_of_range);
  EXPECT_THROW(reader.record(4), std::out_of_range);
}

TEST_F(TfrecordTest, ReaderRejectsSizeMismatch) {
  ShardWriter w(0, path("s.tfrecord"));
  w.append(payload(8, 0), 0, 0);
  auto idx = w.finish();
  idx.file_bytes += 1;
  EXPECT_THROW(ShardReader{idx}, std::runtime_error);
}

TEST_F(TfrecordTest, VerifyAllCatchesCorruption) {
  ShardWriter w(0, path("s.tfrecord"));
  for (int i = 0; i < 5; ++i) w.append(payload(64, 1), 0, static_cast<std::uint64_t>(i));
  auto idx = w.finish();
  {
    ShardReader reader(idx);
    EXPECT_EQ(reader.verify_all(), 5u);
  }
  // Corrupt one payload byte on disk.
  std::fstream f(path("s.tfrecord"), std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(20);
  f.put('\x7f');
  f.close();
  ShardReader reader(idx);
  EXPECT_THROW(reader.verify_all(), std::runtime_error);
}

TEST_F(TfrecordTest, ShardIndexJsonRoundTrip) {
  ShardIndex idx;
  idx.shard_id = 12;
  idx.shard_path = path("s.tfrecord");
  idx.file_bytes = 12345;
  idx.records.push_back({0, 116, -7, 42});
  idx.records.push_back({116, 66, 3, 43});
  idx.save(path("mapping_shard_0012.json"));
  auto loaded = ShardIndex::load(path("mapping_shard_0012.json"));
  EXPECT_EQ(loaded.shard_id, 12u);
  EXPECT_EQ(loaded.file_bytes, 12345u);
  ASSERT_EQ(loaded.records.size(), 2u);
  EXPECT_EQ(loaded.records[0].label, -7);
  EXPECT_EQ(loaded.records[1].sample_index, 43u);
}

TEST_F(TfrecordTest, ByteRangeCoversContiguousRecords) {
  ShardIndex idx;
  idx.records.push_back({0, 100, 0, 0});
  idx.records.push_back({100, 50, 0, 1});
  idx.records.push_back({150, 25, 0, 2});
  auto [lo, hi] = idx.byte_range(0, 3);
  EXPECT_EQ(lo, 0u);
  EXPECT_EQ(hi, 175u);
  auto [lo2, hi2] = idx.byte_range(1, 1);
  EXPECT_EQ(lo2, 100u);
  EXPECT_EQ(hi2, 150u);
  EXPECT_THROW(idx.byte_range(2, 2), std::out_of_range);
}

TEST_F(TfrecordTest, IndexFilenameConvention) {
  EXPECT_EQ(ShardIndex::index_filename(7), "mapping_shard_0007.json");
  EXPECT_EQ(ShardIndex::shard_filename(12), "shard_0012.tfrecord");
}

TEST_F(TfrecordTest, DatasetBuilderRoundRobinAndIndexes) {
  DatasetBuilderOptions opt;
  opt.num_shards = 3;
  opt.directory = (dir_ / "ds").string();
  auto built = build_dataset(opt, 10, [](std::uint64_t i) {
    RawSample s;
    s.bytes = payload(16 + i, static_cast<std::uint8_t>(i));
    s.label = static_cast<std::int64_t>(i * 2);
    return s;
  });
  EXPECT_EQ(built.shards.size(), 3u);
  EXPECT_EQ(built.total_records(), 10u);
  // Round-robin: shard 0 gets samples 0,3,6,9 → 4 records.
  EXPECT_EQ(built.shards[0].num_records(), 4u);
  EXPECT_EQ(built.shards[1].num_records(), 3u);
  EXPECT_EQ(built.shards[2].num_records(), 3u);
  // Labels and sample ids preserved.
  EXPECT_EQ(built.shards[1].records[0].sample_index, 1u);
  EXPECT_EQ(built.shards[1].records[0].label, 2);

  auto loaded = load_all_indexes(opt.directory);
  ASSERT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded[2].shard_id, 2u);

  // Every record readable and CRC-clean.
  for (const auto& idx : loaded) {
    ShardReader reader(idx);
    EXPECT_EQ(reader.verify_all(), idx.num_records());
  }
}

TEST_F(TfrecordTest, LoadAllIndexesMissingDirThrows) {
  EXPECT_THROW(load_all_indexes((dir_ / "missing").string()), std::runtime_error);
}

TEST_F(TfrecordTest, BuilderValidatesOptions) {
  DatasetBuilderOptions opt;
  opt.num_shards = 0;
  opt.directory = (dir_ / "x").string();
  EXPECT_THROW(build_dataset(opt, 1, [](std::uint64_t) { return RawSample{}; }),
               std::runtime_error);
  opt.num_shards = 1;
  opt.directory = "";
  EXPECT_THROW(build_dataset(opt, 1, [](std::uint64_t) { return RawSample{}; }),
               std::runtime_error);
}

TEST_F(TfrecordTest, EmptyFileMmapAndZeroRecords) {
  ShardWriter w(0, path("empty.tfrecord"));
  auto idx = w.finish();
  ShardReader reader(idx);
  EXPECT_EQ(reader.verify_all(), 0u);
}

// Parameterized slice property: for random record layouts, any in-bounds
// slice returns payloads identical to per-record reads.
class SliceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SliceProperty, SliceEqualsPerRecordReads) {
  auto dir = fs::temp_directory_path() / ("emlio_slice_" + std::to_string(GetParam()));
  fs::create_directories(dir);
  Rng rng(GetParam());
  ShardWriter w(0, (dir / "s.tfrecord").string());
  std::size_t n = 20 + rng.uniform(30);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::uint8_t> data(1 + rng.uniform(200));
    for (auto& b : data) b = static_cast<std::uint8_t>(rng());
    w.append(data, 0, i);
  }
  ShardReader reader(w.finish());
  for (int trial = 0; trial < 20; ++trial) {
    std::size_t first = rng.uniform(n);
    std::size_t count = 1 + rng.uniform(n - first);
    auto views = reader.slice(first, count, true);
    for (std::size_t i = 0; i < count; ++i) {
      auto single = reader.record(first + i, true);
      EXPECT_TRUE(std::equal(views[i].begin(), views[i].end(), single.begin(), single.end()));
    }
  }
  fs::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SliceProperty, ::testing::Values(101, 202, 303, 404));

}  // namespace
}  // namespace emlio::tfrecord
