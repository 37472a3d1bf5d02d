// Shared retry/backoff policy for every transport reconnect path.
//
// Three places used to hand-roll their own waiting: the TCP PushSocket threw
// on the first failed connect (callers looped around it ad hoc), the shm
// attach_wait spun on a fixed 20 ms sleep, and a receiver that lost its
// daemon had no reconnect window at all. RetryPolicy centralizes the
// schedule: bounded exponential backoff with deterministic seeded jitter and
// two independent give-up conditions (attempt budget, wall-clock deadline).
//
// Usage shape — the policy owns only the *schedule*, the caller owns the
// attempt:
//
//   net::RetryPolicy policy(opts);
//   for (;;) {
//     try { return do_attempt(); }
//     catch (...) {
//       auto delay = policy.next_delay();
//       if (!delay) throw;            // budget exhausted — surface the error
//       std::this_thread::sleep_for(*delay);
//     }
//   }
//
// Determinism: the jitter stream comes from a seeded Rng, so two policies
// built from identical RetryOptions produce identical delay sequences — the
// retry tests and the chaos bench rely on this. The deadline is charged both
// real elapsed time AND the sum of granted delays, so a test can walk the
// schedule without sleeping and still see the deadline trip.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "common/rng.h"

namespace emlio::net {

/// Knobs for one reconnect/retry window.
struct RetryOptions {
  /// Total attempts allowed, counting the first. 1 = fail fast (no retry),
  /// 0 = unlimited (bounded only by `deadline`, if set).
  std::size_t max_attempts = 1;
  /// Delay before the first retry; doubles per retry.
  std::chrono::milliseconds initial_backoff{20};
  /// Backoff ceiling.
  std::chrono::milliseconds max_backoff{2000};
  /// Fractional jitter: each delay is scaled by a uniform factor in
  /// [1 - jitter, 1 + jitter]. 0 disables jitter entirely.
  double jitter = 0.1;
  /// Wall-clock budget for the whole window, measured from construction.
  /// Zero means no deadline.
  std::chrono::milliseconds deadline{0};
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
};

/// Walks one RetryOptions schedule. Not thread-safe; one policy per attempt
/// loop.
class RetryPolicy {
 public:
  explicit RetryPolicy(const RetryOptions& opts)
      : opts_(opts), rng_(opts.seed), start_(std::chrono::steady_clock::now()) {}

  /// Call after a failed attempt. Returns how long to back off before the
  /// next attempt, or nullopt when the budget (attempts or deadline) is
  /// spent and the caller should give up.
  std::optional<std::chrono::milliseconds> next_delay() {
    ++attempts_;  // the attempt that just failed
    if (opts_.max_attempts != 0 && attempts_ >= opts_.max_attempts) return std::nullopt;

    double base_ms = static_cast<double>(opts_.initial_backoff.count());
    for (std::size_t i = 1; i < attempts_; ++i) {
      base_ms *= 2.0;
      if (base_ms >= static_cast<double>(opts_.max_backoff.count())) break;
    }
    base_ms = std::min(base_ms, static_cast<double>(opts_.max_backoff.count()));
    if (opts_.jitter > 0.0) {
      base_ms *= 1.0 + opts_.jitter * (2.0 * rng_.uniform01() - 1.0);
    }
    auto delay = std::chrono::milliseconds(std::max<std::int64_t>(
        0, static_cast<std::int64_t>(base_ms + 0.5)));

    if (opts_.deadline.count() > 0) {
      const auto real = std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_);
      const auto elapsed = std::max(real, virtual_elapsed_);
      if (elapsed >= opts_.deadline) return std::nullopt;
      delay = std::min(delay, opts_.deadline - elapsed);
      virtual_elapsed_ = elapsed + delay;
    }
    return delay;
  }

  /// Failed attempts so far (== next_delay() calls).
  std::size_t attempts() const { return attempts_; }

  /// Restart the schedule (fresh attempt count, deadline and jitter stream)
  /// — for callers that reuse one policy across independent windows.
  void reset() {
    attempts_ = 0;
    rng_ = Rng(opts_.seed);
    start_ = std::chrono::steady_clock::now();
    virtual_elapsed_ = std::chrono::milliseconds(0);
  }

 private:
  RetryOptions opts_;
  Rng rng_;
  std::size_t attempts_ = 0;
  std::chrono::steady_clock::time_point start_;
  std::chrono::milliseconds virtual_elapsed_{0};
};

}  // namespace emlio::net
