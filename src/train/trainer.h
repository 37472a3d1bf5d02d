// Real-path training loop (mock model, real data integrity).
//
// The real-thread pipeline ends here: the trainer consumes decoded batches,
// runs a deterministic "training step" (touches every byte — a stand-in for
// the tensor work a GPU would do), tracks the loss-model curve, and — the
// part that matters for correctness testing — verifies data-parallel epoch
// semantics: every sample index arrives exactly once per epoch, labels match
// the generator, and payloads pass their embedded checksums.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "msgpack/batch_codec.h"
#include "train/loss_model.h"
#include "workload/sample_generator.h"

namespace emlio::train {

struct TrainerOptions {
  std::uint64_t expected_samples_per_epoch = 0;  ///< 0 = don't check coverage
  bool validate_payloads = true;                 ///< run checksum validation
  LossModel loss;
};

/// Per-epoch outcome.
struct EpochResult {
  std::uint32_t epoch = 0;
  std::uint64_t samples = 0;
  std::uint64_t batches = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t duplicate_samples = 0;  ///< indices seen more than once
  std::uint64_t corrupt_samples = 0;    ///< failed checksum validation
  double final_loss = 0.0;

  /// True when coverage, uniqueness and integrity all held.
  bool clean(std::uint64_t expected_samples) const {
    return duplicate_samples == 0 && corrupt_samples == 0 &&
           (expected_samples == 0 || samples == expected_samples);
  }
};

class Trainer {
 public:
  explicit Trainer(TrainerOptions options, std::uint64_t seed = 11);

  /// Begin epoch bookkeeping.
  void start_epoch(std::uint32_t epoch);

  /// Consume one decoded batch; returns the observed loss of this step.
  double train_step(const msgpack::WireBatch& batch);

  /// Finish the epoch and return its result.
  EpochResult end_epoch();

  std::uint64_t total_samples() const noexcept { return total_samples_; }

 private:
  TrainerOptions options_;
  Rng rng_;
  std::uint32_t epoch_ = 0;
  std::uint64_t total_samples_ = 0;
  EpochResult current_;
  std::vector<bool> seen_;  // index coverage map for the current epoch
  std::uint64_t checksum_accumulator_ = 0;  // forces the byte-touch work
};

}  // namespace emlio::train
