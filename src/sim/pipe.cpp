#include "sim/pipe.h"

#include <algorithm>

namespace emlio::sim {

Pipe::Pipe(Engine& engine, double bandwidth_bytes_per_sec, Nanos latency, UtilizationMeter* meter)
    : engine_(&engine),
      bandwidth_(bandwidth_bytes_per_sec > 0 ? bandwidth_bytes_per_sec : 1.0),
      latency_(latency),
      meter_(meter) {}

void Pipe::transfer(std::uint64_t bytes, std::function<void()> done) {
  transfer_with_latency(bytes, 0, std::move(done));
}

void Pipe::transfer_with_latency(std::uint64_t bytes, Nanos extra_latency,
                                 std::function<void()> done) {
  Nanos now = engine_->now();
  Nanos start = std::max(now, busy_until_);
  auto tx = static_cast<Nanos>(static_cast<double>(bytes) / bandwidth_ * 1e9);
  busy_until_ = start + tx;
  Nanos deliver = busy_until_ + latency_ + extra_latency;
  if (meter_) {
    meter_->begin_work();
    // Meter the serialization window (start..start+tx), not the propagation.
    engine_->schedule_at(start + tx, [m = meter_] { m->end_work(); });
    // begin_work fired at `now` though the pipe may start later; for queued
    // transfers this slightly front-loads utilization, which is acceptable at
    // the 100 ms energy-sampling granularity.
  }
  engine_->schedule_at(deliver, std::move(done));
}

Server::Server(Engine& engine, std::size_t workers, UtilizationMeter* meter)
    : engine_(&engine), workers_(workers ? workers : 1), meter_(meter) {}

void Server::submit(Nanos service_time, std::function<void()> done) {
  Job job{service_time, std::move(done)};
  if (busy_ < workers_) {
    dispatch(std::move(job));
  } else {
    queue_.push_back(std::move(job));
  }
}

void Server::dispatch(Job job) {
  ++busy_;
  if (meter_) meter_->begin_work();
  engine_->schedule(job.service, [this, done = std::move(job.done)]() mutable {
    if (meter_) meter_->end_work();
    --busy_;
    if (!queue_.empty()) {
      Job next = std::move(queue_.front());
      queue_.pop_front();
      dispatch(std::move(next));
    }
    done();
  });
}

}  // namespace emlio::sim
