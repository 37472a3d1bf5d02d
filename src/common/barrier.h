// Reusable (cyclic) thread barrier.
//
// Algorithm 1 of the paper aligns the CPU/DRAM and GPU sampler threads on a
// barrier so every sampling round produces a coherent energy tuple for the
// same timestamp t_k. std::barrier exists in C++20 but its completion-step
// typing makes dependency injection awkward; this small class offers
// arrive_and_wait() with a per-cycle generation counter.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>

namespace emlio {

class CyclicBarrier {
 public:
  /// A barrier for `parties` threads. Reusable across cycles.
  explicit CyclicBarrier(std::size_t parties);

  /// Block until all parties arrive. Returns the generation index that was
  /// completed (0-based), i.e. how many full cycles had completed before.
  std::size_t arrive_and_wait();

 private:
  const std::size_t parties_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t waiting_ = 0;
  std::size_t generation_ = 0;
};

}  // namespace emlio
