// Layer-isolation modes: each layer of the stack driven alone, from public
// APIs, on the workload's own data and with the workload's own widths, so
// its ceiling can be read without the layers around it.
//
//   tfrecord  ShardReader::slice over the epoch-0 plan, every cache line read
//   encode    BatchCodec::encode of pre-built epoch-0 batches (views)
//   decode    BatchCodec::decode of pre-encoded batches
//   daemon    Daemon::serve_epoch into a sink that drops every payload
//   net       pre-encoded payloads through the workload's sink/source pair
//   receiver  Receiver fed by sources replaying pre-encoded batches
//   pipeline  Pipeline fed pre-decoded batches from memory
//
// Every mode reports payload GB moved, wall seconds and process CPU
// seconds (getrusage user+sys) over its timed part.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "dataset.h"
#include "workloads.h"

namespace loadbench {

struct LayerRun {
  std::string layer;
  double gb = 0;       ///< sample payload bytes / 1e9
  double samples = 0;
  double wall_s = 0;
  double cpu_s = 0;
  double gb_per_s() const { return wall_s > 0 ? gb / wall_s : 0; }
  double cpu_s_per_gb() const { return gb > 0 ? cpu_s / gb : 0; }
  double samples_per_s() const { return wall_s > 0 ? samples / wall_s : 0; }
};

/// Process CPU seconds so far (getrusage RUSAGE_SELF, user + sys).
double process_cpu_seconds();

/// Runs the modes that apply to `workload` (pipeline only where the
/// workload has one), each for about `budget_s` seconds, in the order
/// listed above.
std::vector<LayerRun> run_isolation(const Workload& workload, const Dataset& dataset,
                                    std::uint64_t seed, double budget_s);

}  // namespace loadbench
