// Real-path microbenchmark: the actual (non-simulated) EMLIO stack — mmap'd
// TFRecord shards → daemon SendWorkers → msgpack → transport → receiver —
// measured end-to-end on this machine, over both the in-process channel and
// real loopback TCP. Complements the simulator benches with evidence that
// the real implementation moves bytes at rates far above what the modeled
// 10 GbE testbed needs.
#include <cstdio>
#include <filesystem>

#include "common/clock.h"
#include "core/service.h"
#include "workload/materialize.h"

using namespace emlio;

namespace {

double run_once(core::Transport transport, std::size_t streams, double rtt_ms) {
  namespace fs = std::filesystem;
  auto dir = fs::temp_directory_path() / "emlio_micro_realpath";
  static bool materialized = false;
  auto spec = workload::presets::tiny(512, 32 * 1024);  // 16 MB dataset
  if (!materialized) {
    fs::remove_all(dir);
    workload::materialize_tfrecord(spec, dir.string(), 4);
    materialized = true;
  }

  core::ServiceConfig cfg;
  cfg.dataset_dir = dir.string();
  cfg.batch_size = 32;
  cfg.transport = transport;
  cfg.num_streams = streams;
  cfg.link.rtt_ms = rtt_ms;
  core::EmlioService service(cfg);

  Stopwatch sw(SteadyClock::instance());
  service.start();
  std::uint64_t bytes = 0;
  while (auto batch = service.next_batch()) {
    if (batch->last) break;
    bytes += batch->payload_bytes();
  }
  double seconds = sw.elapsed_seconds();
  service.stop();
  return static_cast<double>(bytes) / 1e6 / seconds;  // MB/s
}

}  // namespace

int main() {
  std::printf("== micro_realpath: real EMLIO stack end-to-end throughput\n");
  std::printf("   transport          streams  rtt_ms  MB/s\n");
  struct Case {
    core::Transport transport;
    std::size_t streams;
    double rtt;
    const char* name;
  } cases[] = {
      {core::Transport::kInProcess, 1, 0.0, "in-process"},
      {core::Transport::kInProcess, 1, 2.0, "in-process+2ms"},
      {core::Transport::kTcp, 1, 0.0, "tcp x1"},
      {core::Transport::kTcp, 4, 0.0, "tcp x4"},
  };
  for (const auto& c : cases) {
    double mbs = run_once(c.transport, c.streams, c.rtt);
    std::printf("   %-18s %7zu  %6.1f  %6.0f\n", c.name, c.streams, c.rtt, mbs);
  }
  std::filesystem::remove_all(std::filesystem::temp_directory_path() / "emlio_micro_realpath");
  return 0;
}
