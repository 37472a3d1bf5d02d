// Discrete-event simulation engine.
//
// Substitute for the paper's Chameleon testbed: the benchmark harness runs
// each loading pipeline at full paper scale (10 GB epochs, 30 ms RTT,
// thousands of seconds of virtual time) in milliseconds of host time. The
// engine is a classic calendar queue: single-threaded, deterministic, with
// nanosecond virtual timestamps. Models are written as callback chains over
// the primitives in pipe.h / semaphore.h / async_queue.h.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/clock.h"

namespace emlio::sim {

/// The simulator's virtual clock + event loop.
class Engine : public Clock {
 public:
  Engine() = default;

  /// Current virtual time.
  Nanos now() const override { return now_; }

  /// Schedule `fn` to run at now() + delay (delay >= 0).
  void schedule(Nanos delay, std::function<void()> fn);

  /// Schedule `fn` at absolute virtual time t (>= now()).
  void schedule_at(Nanos t, std::function<void()> fn);

  /// Run until the event queue empties. Returns final virtual time.
  Nanos run();

 private:
  struct Event {
    Nanos time;
    std::uint64_t seq;  // FIFO tie-break for simultaneous events
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void step();

  Nanos now_ = 0;
  std::uint64_t seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace emlio::sim
