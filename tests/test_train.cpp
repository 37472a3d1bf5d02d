// Tests for model profiles, the loss model, DDP cost model and the trainer.
#include <gtest/gtest.h>

#include "msgpack/batch_codec.h"
#include "train/ddp.h"
#include "train/loss_model.h"
#include "train/model_profile.h"
#include "train/trainer.h"
#include "workload/sample_generator.h"

namespace emlio::train {
namespace {

TEST(ModelProfile, Resnet50CalibratedToDaliLocal) {
  auto m = presets::resnet50();
  // 100 000 samples must land near the paper's 151.7 s DALI-local epoch.
  double epoch_s = to_seconds(m.gpu_train_per_sample) * 100000.0 +
                   m.gpu_decode_per_byte_ns * 1e-9 * 1e10;
  EXPECT_NEAR(epoch_s, 151.7, 5.0);
}

TEST(ModelProfile, Vgg19SlightlyFasterPerEpochButHotter) {
  auto vgg = presets::vgg19();
  auto res = presets::resnet50();
  EXPECT_LT(vgg.gpu_train_per_sample, res.gpu_train_per_sample);
  EXPECT_GT(vgg.gpu_active_fraction, res.gpu_active_fraction);
  EXPECT_GT(vgg.gradient_bytes, res.gradient_bytes);
  EXPECT_GT(vgg.cpu_threads_during_train, res.cpu_threads_during_train);
}

TEST(ModelProfile, CostHelpersScale) {
  auto m = presets::tiny_test_model();
  EXPECT_EQ(m.train_batch(10), m.gpu_train_per_sample * 10);
  EXPECT_EQ(m.gpu_decode(1000), static_cast<Nanos>(m.gpu_decode_per_byte_ns * 1000));
  EXPECT_EQ(m.cpu_decode(1000), static_cast<Nanos>(m.cpu_decode_per_byte_ns * 1000));
}

TEST(LossModel, MonotoneDecayTowardFloor) {
  LossModel loss;
  EXPECT_DOUBLE_EQ(loss.expected(0), loss.initial_loss);
  double prev = loss.initial_loss;
  for (std::uint64_t n : {1000u, 5000u, 20000u, 50000u}) {
    double l = loss.expected(n);
    EXPECT_LT(l, prev);
    EXPECT_GT(l, loss.floor_loss);
    prev = l;
  }
}

TEST(LossModel, Figure11Calibration) {
  LossModel loss;  // defaults calibrated to Figure 11
  // Starts at 5.0, ends one 50 000-sample COCO epoch near 3.2.
  EXPECT_NEAR(loss.expected(0), 5.0, 0.01);
  EXPECT_NEAR(loss.expected(50000), 3.2, 0.1);
}

TEST(LossModel, ObservationNoiseBounded) {
  LossModel loss;
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double observed = loss.observe(10000, rng);
    EXPECT_NEAR(observed, loss.expected(10000), 6 * loss.noise_stddev);
  }
}

TEST(MovingAverage, WindowedMean) {
  MovingAverage ma(3);
  EXPECT_DOUBLE_EQ(ma.add(3.0), 3.0);
  EXPECT_DOUBLE_EQ(ma.add(6.0), 4.5);
  EXPECT_DOUBLE_EQ(ma.add(9.0), 6.0);
  EXPECT_DOUBLE_EQ(ma.add(12.0), 9.0);  // 6,9,12
  EXPECT_TRUE(ma.full());
}

TEST(Ddp, AllreduceScalesWithNodesAndRtt) {
  DdpConfig cfg;
  cfg.nodes = 2;
  Nanos t2 = allreduce_time(cfg, 100'000'000, 10.0);
  cfg.nodes = 4;
  Nanos t4 = allreduce_time(cfg, 100'000'000, 10.0);
  EXPECT_GT(t4, t2);
  cfg.nodes = 1;
  EXPECT_EQ(allreduce_time(cfg, 100'000'000, 10.0), 0);
}

TEST(Ddp, RingBandwidthTerm) {
  DdpConfig cfg;
  cfg.nodes = 2;
  cfg.network_bytes_per_sec = 1.25e9;
  // 2·(N-1)·(grad/N)/bw = 100 MB / 1.25 GB/s = 80 ms at RTT 0.
  EXPECT_NEAR(to_seconds(allreduce_time(cfg, 100'000'000, 0.0)), 0.080, 0.001);
}

TEST(Ddp, ExposedSubtractsOverlap) {
  DdpConfig cfg;
  cfg.nodes = 2;
  Nanos full = allreduce_time(cfg, 100'000'000, 0.0);
  EXPECT_EQ(allreduce_exposed(cfg, 100'000'000, 0.0, full), 0);
  EXPECT_EQ(allreduce_exposed(cfg, 100'000'000, 0.0, full / 2), full - full / 2);
}

// ------------------------------------------------------------------ trainer

msgpack::WireBatch valid_batch(std::uint32_t epoch, std::uint64_t id,
                               const std::vector<std::uint64_t>& indices) {
  workload::SampleGenerator gen(workload::presets::tiny(64, 600));
  msgpack::WireBatch b;
  b.epoch = epoch;
  b.batch_id = id;
  for (auto i : indices) {
    msgpack::WireSample s;
    s.index = i;
    s.label = gen.label(i);
    s.bytes = gen.generate(i);
    b.samples.push_back(std::move(s));
  }
  return b;
}

TEST(Trainer, CleanEpochAccounting) {
  TrainerOptions opt;
  opt.expected_samples_per_epoch = 8;
  Trainer trainer(opt);
  trainer.start_epoch(0);
  trainer.train_step(valid_batch(0, 0, {0, 1, 2, 3}));
  trainer.train_step(valid_batch(0, 1, {4, 5, 6, 7}));
  auto result = trainer.end_epoch();
  EXPECT_EQ(result.samples, 8u);
  EXPECT_EQ(result.batches, 2u);
  EXPECT_EQ(result.duplicate_samples, 0u);
  EXPECT_EQ(result.corrupt_samples, 0u);
  EXPECT_TRUE(result.clean(8));
  EXPECT_GT(result.payload_bytes, 0u);
}

TEST(Trainer, DetectsDuplicates) {
  TrainerOptions opt;
  opt.expected_samples_per_epoch = 8;
  Trainer trainer(opt);
  trainer.start_epoch(0);
  trainer.train_step(valid_batch(0, 0, {0, 1, 2, 2}));
  auto result = trainer.end_epoch();
  EXPECT_EQ(result.duplicate_samples, 1u);
  EXPECT_FALSE(result.clean(8));
}

TEST(Trainer, DetectsCorruptPayload) {
  TrainerOptions opt;
  opt.expected_samples_per_epoch = 4;
  Trainer trainer(opt);
  trainer.start_epoch(0);
  auto batch = valid_batch(0, 0, {0, 1});
  auto corrupted = batch.samples[1].bytes.to_vector();
  corrupted[100] ^= 0xFF;
  batch.samples[1].bytes = std::move(corrupted);
  trainer.train_step(batch);
  EXPECT_EQ(trainer.end_epoch().corrupt_samples, 1u);
}

TEST(Trainer, DetectsOutOfRangeIndex) {
  TrainerOptions opt;
  opt.expected_samples_per_epoch = 4;
  Trainer trainer(opt);
  trainer.start_epoch(0);
  auto batch = valid_batch(0, 0, {10});  // index beyond expected range
  trainer.train_step(batch);
  EXPECT_EQ(trainer.end_epoch().corrupt_samples, 1u);
}

TEST(Trainer, CoverageShortfallNotClean) {
  TrainerOptions opt;
  opt.expected_samples_per_epoch = 8;
  Trainer trainer(opt);
  trainer.start_epoch(0);
  trainer.train_step(valid_batch(0, 0, {0, 1, 2}));
  auto result = trainer.end_epoch();
  EXPECT_FALSE(result.clean(8));
}

TEST(Trainer, LossDecreasesAcrossSteps) {
  TrainerOptions opt;
  opt.loss.noise_stddev = 0.0;  // deterministic
  Trainer trainer(opt);
  trainer.start_epoch(0);
  double first = trainer.train_step(valid_batch(0, 0, {0, 1, 2, 3}));
  double last = first;
  for (int i = 1; i < 20; ++i) {
    last = trainer.train_step(valid_batch(0, static_cast<std::uint64_t>(i), {0, 1, 2, 3}));
  }
  EXPECT_LT(last, first);
}

TEST(Trainer, MultiEpochResetsCoverage) {
  TrainerOptions opt;
  opt.expected_samples_per_epoch = 4;
  Trainer trainer(opt);
  trainer.start_epoch(0);
  trainer.train_step(valid_batch(0, 0, {0, 1, 2, 3}));
  EXPECT_TRUE(trainer.end_epoch().clean(4));
  trainer.start_epoch(1);
  trainer.train_step(valid_batch(1, 0, {0, 1, 2, 3}));  // same indices, new epoch
  EXPECT_TRUE(trainer.end_epoch().clean(4));
  EXPECT_EQ(trainer.total_samples(), 8u);
}

}  // namespace
}  // namespace emlio::train
