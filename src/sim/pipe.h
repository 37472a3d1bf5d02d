// Bandwidth/latency pipes and FCFS service resources.
//
// Pipe models anything that serializes byte transfers — a disk, a NIC, a
// WAN path: a transfer of S bytes that starts when the pipe is free
// completes after S/bandwidth + latency; back-to-back transfers queue behind
// each other's serialization time while latencies overlap (pipelining),
// which is exactly the property that lets EMLIO hide RTT and that per-file
// NFS reads cannot exploit.
//
// Server models a pool of identical workers with per-item service times —
// the daemon's serialize threads, a node's decode cores.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "common/clock.h"
#include "sim/engine.h"
#include "sim/meter.h"

namespace emlio::sim {

/// A FIFO byte channel with fixed bandwidth and propagation latency.
class Pipe {
 public:
  /// `bandwidth` in bytes/second; `latency` added to every transfer.
  Pipe(Engine& engine, double bandwidth_bytes_per_sec, Nanos latency,
       UtilizationMeter* meter = nullptr);

  /// Begin a transfer of `bytes`; `done` fires at the delivery time.
  void transfer(std::uint64_t bytes, std::function<void()> done);

  /// Same, but adds `extra_latency` for this transfer only (e.g. one more
  /// request round-trip).
  void transfer_with_latency(std::uint64_t bytes, Nanos extra_latency,
                             std::function<void()> done);

 private:
  Engine* engine_;
  double bandwidth_;
  Nanos latency_;
  UtilizationMeter* meter_;
  Nanos busy_until_ = 0;
};

/// A pool of `workers` identical servers with FCFS queueing.
class Server {
 public:
  Server(Engine& engine, std::size_t workers, UtilizationMeter* meter = nullptr);

  /// Request `service_time` of work; `done` fires when a worker finishes it.
  void submit(Nanos service_time, std::function<void()> done);

 private:
  struct Job {
    Nanos service;
    std::function<void()> done;
  };
  void dispatch(Job job);

  Engine* engine_;
  std::size_t workers_;
  std::size_t busy_ = 0;
  UtilizationMeter* meter_;
  std::deque<Job> queue_;
};

}  // namespace emlio::sim
