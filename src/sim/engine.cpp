#include "sim/engine.h"

#include <stdexcept>

namespace emlio::sim {

void Engine::schedule(Nanos delay, std::function<void()> fn) {
  if (delay < 0) throw std::invalid_argument("sim: negative delay");
  schedule_at(now_ + delay, std::move(fn));
}

void Engine::schedule_at(Nanos t, std::function<void()> fn) {
  if (t < now_) throw std::invalid_argument("sim: scheduling into the past");
  queue_.push(Event{t, seq_++, std::move(fn)});
}

void Engine::step() {
  // Move the event out before running: the callback may schedule new events.
  Event ev = std::move(const_cast<Event&>(queue_.top()));
  queue_.pop();
  now_ = ev.time;
  ev.fn();
}

Nanos Engine::run() {
  while (!queue_.empty()) step();
  return now_;
}

}  // namespace emlio::sim
