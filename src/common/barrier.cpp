#include "common/barrier.h"

namespace emlio {

CyclicBarrier::CyclicBarrier(std::size_t parties) : parties_(parties ? parties : 1) {}

std::size_t CyclicBarrier::arrive_and_wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  std::size_t gen = generation_;
  if (++waiting_ == parties_) {
    waiting_ = 0;
    ++generation_;
    cv_.notify_all();
    return gen;
  }
  cv_.wait(lock, [&] { return generation_ != gen; });
  return gen;
}

}  // namespace emlio
