// google-benchmark microbenches for the hot paths: CRC32C, the sample
// checksum, TFRecord framing and slicing, msgpack batch encode/decode, sample
// generation and per-batch preprocessing — plus a
// decode-path allocation audit that quantifies the zero-copy Payload
// refactor (per-sample heap allocations and bytes copied, view decode vs the
// old materializing decode), appended as JSON via bench_common.h.
#include <benchmark/benchmark.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>

#include "bench_common.h"
#include "common/crc32c.h"
#include "common/payload.h"
#include "common/thread_pool.h"
#include "json/json.h"
#include "msgpack/batch_codec.h"
#include "pipeline/ops.h"
#include "tfrecord/reader.h"
#include "workload/materialize.h"

// ------------------------------------------------------------------------
// Global allocation counters: every heap allocation in this binary is
// tallied so the decode-path audit reports *measured* allocations, not
// estimates. Benchmarks themselves are unaffected (counting is two relaxed
// atomic adds).
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
std::atomic<std::uint64_t> g_heap_bytes{0};

void* counted_alloc(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(n, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace emlio;

namespace {

struct HeapSnapshot {
  std::uint64_t allocs;
  std::uint64_t bytes;
};

HeapSnapshot heap_now() {
  return {g_heap_allocs.load(std::memory_order_relaxed),
          g_heap_bytes.load(std::memory_order_relaxed)};
}

std::vector<std::uint8_t> payload(std::size_t n) {
  std::vector<std::uint8_t> out(n);
  Rng rng(7);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

msgpack::WireBatch sample_batch(std::size_t samples, std::size_t bytes_each) {
  msgpack::WireBatch batch;
  for (std::size_t i = 0; i < samples; ++i) {
    msgpack::WireSample s;
    s.index = i;
    s.label = static_cast<std::int64_t>(i);
    s.bytes = payload(bytes_each);
    batch.samples.push_back(std::move(s));
  }
  return batch;
}

void BM_Crc32c(benchmark::State& state) {
  auto data = payload(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c::masked(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(1024)->Arg(100 * 1024)->Arg(1024 * 1024);

void BM_SampleValidate(benchmark::State& state) {
  auto spec = workload::presets::tiny(1, static_cast<std::uint64_t>(state.range(0)));
  spec.size_jitter = 0.0;
  auto sample = workload::SampleGenerator(spec).generate(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload::SampleGenerator::validate(sample));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * state.range(0));
}
BENCHMARK(BM_SampleValidate)->Arg(100 * 1024)->Arg(2 * 1024 * 1024);

void BM_Preprocess(benchmark::State& state) {
  // One 64 x 100 KB batch through the Pipeline worker's per-sample ops:
  // decode (checksum + gather) -> 28x28 crop -> mirror -> normalize.
  constexpr std::size_t kSamples = 64;
  static constexpr std::array<float, 3> kMean = {128.0f, 128.0f, 128.0f};
  static constexpr std::array<float, 3> kStd = {64.0f, 64.0f, 64.0f};
  auto spec = workload::presets::tiny(kSamples, 100 * 1024);
  spec.size_jitter = 0.0;
  workload::SampleGenerator gen(spec);
  std::vector<std::vector<std::uint8_t>> batch;
  for (std::uint64_t i = 0; i < kSamples; ++i) batch.push_back(gen.generate(i));
  for (auto _ : state) {
    for (std::size_t i = 0; i < kSamples; ++i) {
      auto d = pipeline::decode(batch[i], 0);
      auto img = pipeline::crop(d.image, 2, 2, 28, 28);
      img = pipeline::normalize(pipeline::mirror(std::move(img), i % 2 == 0), kMean, kStd);
      benchmark::DoNotOptimize(img.data.data());
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kSamples * 100 * 1024));
}
BENCHMARK(BM_Preprocess);

void BM_BatchEncode(benchmark::State& state) {
  auto batch = sample_batch(static_cast<std::size_t>(state.range(0)),
                            100 * 1024);  // ImageNet-sized samples
  for (auto _ : state) {
    benchmark::DoNotOptimize(msgpack::BatchCodec::encode(batch));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.payload_bytes()));
}
BENCHMARK(BM_BatchEncode)->Arg(8)->Arg(32)->Arg(128);

void BM_BatchEncodePooled(benchmark::State& state) {
  auto batch = sample_batch(static_cast<std::size_t>(state.range(0)), 100 * 1024);
  auto pool = BufferPool::create();
  for (auto _ : state) {
    benchmark::DoNotOptimize(msgpack::BatchCodec::encode(batch, *pool));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.payload_bytes()));
}
BENCHMARK(BM_BatchEncodePooled)->Arg(8)->Arg(32)->Arg(128);

void BM_BatchEncodePooledParallel(benchmark::State& state) {
  // The daemon's pipelined engine fans encode jobs across a shared
  // ThreadPool into one shared BufferPool (DaemonConfig::pool_threads);
  // this measures how that hot stage scales with the pool size.
  auto batch = sample_batch(32, 100 * 1024);
  auto pool = BufferPool::create();
  ThreadPool workers(static_cast<std::size_t>(state.range(0)));
  constexpr int kBatchesPerIter = 16;
  for (auto _ : state) {
    for (int i = 0; i < kBatchesPerIter; ++i) {
      workers.post([&] { benchmark::DoNotOptimize(msgpack::BatchCodec::encode(batch, *pool)); });
    }
    workers.wait_idle();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * kBatchesPerIter *
                          static_cast<std::int64_t>(batch.payload_bytes()));
}
BENCHMARK(BM_BatchEncodePooledParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_BatchDecode(benchmark::State& state) {
  auto encoded =
      msgpack::BatchCodec::encode(sample_batch(32, static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(msgpack::BatchCodec::decode(encoded));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(encoded.size()));
}
BENCHMARK(BM_BatchDecode)->Arg(100 * 1024)->Arg(2 * 1024 * 1024);

void BM_BatchDecodeMaterialized(benchmark::State& state) {
  // The pre-refactor decode behaviour: one owned vector per sample. Kept as
  // the baseline the zero-copy path is measured against.
  auto encoded =
      msgpack::BatchCodec::encode(sample_batch(32, static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    auto batch = msgpack::BatchCodec::decode(encoded);
    for (auto& s : batch.samples) {
      benchmark::DoNotOptimize(s.bytes.to_vector());
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(encoded.size()));
}
BENCHMARK(BM_BatchDecodeMaterialized)->Arg(100 * 1024)->Arg(2 * 1024 * 1024);

void BM_TfrecordSlice(benchmark::State& state) {
  namespace fs = std::filesystem;
  auto dir = fs::temp_directory_path() / "emlio_micro_codec";
  fs::remove_all(dir);
  auto spec = workload::presets::tiny(256, 16 * 1024);
  auto built = workload::materialize_tfrecord(spec, dir.string(), 1);
  tfrecord::ShardReader reader(built.shards[0]);
  auto batch = static_cast<std::size_t>(state.range(0));
  std::size_t pos = 0;
  for (auto _ : state) {
    if (pos + batch > reader.num_records()) pos = 0;
    benchmark::DoNotOptimize(reader.slice(pos, batch));
    pos += batch;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
  fs::remove_all(dir);
}
BENCHMARK(BM_TfrecordSlice)->Arg(8)->Arg(64);

void BM_SampleGenerate(benchmark::State& state) {
  workload::SampleGenerator gen(workload::presets::tiny(1024, 100 * 1024));
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate(i++ % 1024));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 100 * 1024);
}
BENCHMARK(BM_SampleGenerate);

// ------------------------------------------------------------------------
// Decode-path allocation audit. Measures, for one received batch:
//   * view path (current): BatchCodec::decode — samples are refcounted
//     views into the shared received Payload,
//   * materialize path (pre-refactor equivalent): decode + one owned
//     vector per sample.
// Reports measured heap allocations/bytes and the payload layer's explicit
// copy counter, then appends a JSON row through bench_common.h.
json::Value audit_decode_path(std::size_t samples, std::size_t bytes_each) {
  Payload encoded = msgpack::BatchCodec::encode(sample_batch(samples, bytes_each));

  PayloadCounters::reset();
  auto before_view = heap_now();
  auto view_batch = msgpack::BatchCodec::decode(encoded);
  auto after_view = heap_now();
  std::size_t sharing = 0;
  for (const auto& s : view_batch.samples) {
    if (s.bytes.shares_storage_with(encoded)) ++sharing;
  }
  std::uint64_t view_payload_copies = PayloadCounters::bytes_copied.load();

  PayloadCounters::reset();
  auto before_mat = heap_now();
  auto mat_batch = msgpack::BatchCodec::decode(encoded);
  std::vector<std::vector<std::uint8_t>> owned;
  owned.reserve(mat_batch.samples.size());
  for (const auto& s : mat_batch.samples) owned.push_back(s.bytes.to_vector());
  auto after_mat = heap_now();

  json::Object row;
  row["bench"] = "micro_codec_decode_path";
  row["samples"] = static_cast<std::int64_t>(samples);
  row["sample_bytes"] = static_cast<std::int64_t>(bytes_each);
  row["encoded_bytes"] = static_cast<std::int64_t>(encoded.size());
  json::Object view;
  view["heap_allocs"] = static_cast<std::int64_t>(after_view.allocs - before_view.allocs);
  view["heap_bytes"] = static_cast<std::int64_t>(after_view.bytes - before_view.bytes);
  view["payload_bytes_copied"] = static_cast<std::int64_t>(view_payload_copies);
  view["samples_sharing_received_storage"] = static_cast<std::int64_t>(sharing);
  row["view_decode"] = json::Value(std::move(view));
  json::Object mat;
  mat["heap_allocs"] = static_cast<std::int64_t>(after_mat.allocs - before_mat.allocs);
  mat["heap_bytes"] = static_cast<std::int64_t>(after_mat.bytes - before_mat.bytes);
  row["materializing_decode"] = json::Value(std::move(mat));
  return json::Value(std::move(row));
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\ndecode-path allocation audit (zero-copy view decode vs materializing "
              "decode):\n");
  bench::append_json_line(audit_decode_path(32, 100 * 1024));
  bench::append_json_line(audit_decode_path(128, 16 * 1024));
  return 0;
}
