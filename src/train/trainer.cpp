#include "train/trainer.h"

namespace emlio::train {

Trainer::Trainer(TrainerOptions options, std::uint64_t seed)
    : options_(std::move(options)), rng_(seed) {}

void Trainer::start_epoch(std::uint32_t epoch) {
  epoch_ = epoch;
  current_ = EpochResult{};
  current_.epoch = epoch;
  seen_.assign(options_.expected_samples_per_epoch, false);
}

double Trainer::train_step(const msgpack::WireBatch& batch) {
  for (const auto& s : batch.samples) {
    ++current_.samples;
    ++total_samples_;
    current_.payload_bytes += s.bytes.size();

    if (options_.validate_payloads &&
        !workload::SampleGenerator::validate(s.bytes.data(), s.bytes.size())) {
      ++current_.corrupt_samples;
    }
    if (!seen_.empty()) {
      if (s.index < seen_.size()) {
        if (seen_[s.index]) ++current_.duplicate_samples;
        seen_[s.index] = true;
      } else {
        ++current_.corrupt_samples;  // out-of-range index
      }
    }
    // "Training": fold the payload into an accumulator — stands in for the
    // tensor math and keeps the compiler from eliding the data touch.
    std::uint64_t h = static_cast<std::uint64_t>(s.label) * 0x9E3779B97F4A7C15ull;
    for (std::size_t i = 0; i < s.bytes.size(); i += 64) {
      h ^= s.bytes[i];
      h *= 0x100000001b3ull;
    }
    checksum_accumulator_ ^= h;
  }
  ++current_.batches;
  current_.final_loss = options_.loss.observe(total_samples_, rng_);
  return current_.final_loss;
}

EpochResult Trainer::end_epoch() {
  if (!seen_.empty()) {
    std::uint64_t missing = 0;
    for (bool b : seen_) {
      if (!b) ++missing;
    }
    // Coverage shortfall shows up as samples != expected; missing is implied.
    (void)missing;
  }
  return current_;
}

}  // namespace emlio::train
