// loadbench: one run of one workload over the real EMLIO stack.
//
//   loadbench --workload NAME --seed N --seconds S --trace 0|1 --data DIR
//             [--energy-cores C]
//
// Generates the workload's dataset from the seed into DIR, then
//
//   --trace 0  measures the end-to-end metrics, untraced: the median of
//              repeated fresh starts (setup_s), then one stack that runs an
//              untimed warm-up epoch and timed epochs for S seconds.
//   --trace 1  measures the per-layer metrics: set-up phases, an untraced
//              and a traced window of S/2 seconds each (the traced one with
//              the engines' tracers on), one fully checked epoch, and the
//              layer-isolation modes (isolate.h).
//
// Every delivered sample is checked for coverage, duplicates and label;
// payload checksums are checked in full in warm-up and verification epochs
// and for a fixed 1-in-N subset in timed epochs. The last stdout line is
// {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.h"
#include "common/log.h"
#include "energy/power_model.h"
#include "isolate.h"
#include "json/json.h"
#include "obs/trace.h"
#include "stack.h"
#include "train/trainer.h"
#include "workload/sample_generator.h"

namespace em = emlio;
using namespace loadbench;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data;
  double energy_cores = 24;  ///< C: cores of the modeled package
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "loadbench: %s\nusage: loadbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --data DIR [--energy-cores C]\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    std::string v = argv[++i];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--data") a.data = v;
    else if (k == "--energy-cores") a.energy_cores = std::stod(v);
    else usage(("unknown flag " + k).c_str());
  }
  if (a.workload.empty() || a.data.empty()) usage("--workload and --data are required");
  if (a.seconds <= 0 || a.energy_cores <= 0) usage("--seconds and --energy-cores must be > 0");
  return a;
}

double now_s() { return static_cast<double>(em::obs::now_ns()) / 1e9; }

std::string read_file(const char* path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string read_status() { return read_file("/proc/self/status"); }
CpuTimes read_cpu_times() { return parse_cpu_times(read_file("/proc/stat")); }

/// Failure accounting for one run: samples attempted and failed, plus a
/// description of every problem seen.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void problem(std::uint64_t failed_samples, const std::string& what) {
    failed += failed_samples;
    problems.push_back(what);
  }
};

/// The consumer: drives train::Trainer over a stack's deliveries, one epoch
/// at a time, and checks every sample against the generated dataset.
class Consumer {
 public:
  struct Epoch {
    double wall_s = 0;
    double cpu_s = 0;
    std::uint64_t samples = 0;
  };

  Consumer(const Dataset& dataset, Tally& tally)
      : dataset_(dataset), tally_(tally), trainer_(options(dataset)) {
    mark_s_ = now_s();
    mark_cpu_ = process_cpu_seconds();
  }

  /// Consume one whole epoch (through its marker). Timed from the previous
  /// marker (or construction); payloads of samples with index % check_every
  /// == 0 are checksummed in full.
  Epoch run_epoch(Stack& stack, std::uint64_t check_every) {
    trainer_.start_epoch(epoch_);
    std::uint64_t bad = 0;
    for (;;) {
      const double t0 = now_s();
      auto d = stack.next();
      const double t1 = now_s();
      wait_s_ += t1 - t0;
      if (!d) {
        tally_.problem(0, "stream ended inside epoch " + std::to_string(epoch_));
        break;
      }
      if (d->epoch_end) break;
      bad += d->checksum_failures;
      for (const auto& s : d->batch.samples) bad += !sample_ok(s, check_every);
      const double t2 = now_s();
      trainer_.train_step(d->batch);
      step_s_ += now_s() - t2;
      ++batches_;
    }
    const auto r = trainer_.end_epoch();
    const std::uint64_t expected = dataset_.samples;
    const std::uint64_t unique = r.samples - std::min(r.samples, r.duplicate_samples);
    const std::uint64_t missing = expected - std::min(expected, unique);
    tally_.attempted += expected;
    const std::uint64_t failed = missing + r.duplicate_samples + r.corrupt_samples + bad;
    if (failed > 0) {
      tally_.problem(failed, "epoch " + std::to_string(epoch_) + ": " + std::to_string(missing) +
                                 " missing, " + std::to_string(r.duplicate_samples) +
                                 " duplicate, " + std::to_string(r.corrupt_samples + bad) +
                                 " corrupt or mislabeled");
    }
    Epoch e;
    const double t = now_s(), cpu = process_cpu_seconds();
    e.wall_s = t - mark_s_;
    e.cpu_s = cpu - mark_cpu_;
    e.samples = r.samples;
    mark_s_ = t;
    mark_cpu_ = cpu;
    ++epoch_;
    return e;
  }

  /// Seconds blocked in Stack::next(), seconds inside train_step, and
  /// batches stepped, since construction.
  double wait_s() const { return wait_s_; }
  double step_s() const { return step_s_; }
  std::uint64_t batches() const { return batches_; }

  /// Label always; with `check_every` hitting the index, also the payload's
  /// embedded checksum and index (raw path only: the pipeline path has
  /// checked every checksum in its decode stage already).
  bool sample_ok(const em::msgpack::WireSample& s, std::uint64_t check_every) const {
    if (s.index >= dataset_.labels.size() || s.label != dataset_.labels[s.index]) return false;
    if (s.bytes.empty() || s.index % check_every != 0) return true;
    return em::workload::SampleGenerator::validate(s.bytes.data(), s.bytes.size()) &&
           em::workload::SampleGenerator::embedded_index(s.bytes.data(), s.bytes.size()) ==
               s.index;
  }

 private:
  static em::train::TrainerOptions options(const Dataset& d) {
    em::train::TrainerOptions o;
    o.expected_samples_per_epoch = d.samples;
    o.validate_payloads = false;  // sample_ok() owns payload checks
    return o;
  }

  const Dataset& dataset_;
  Tally& tally_;
  em::train::Trainer trainer_;
  std::uint32_t epoch_ = 0;
  double mark_s_ = 0, mark_cpu_ = 0;
  double wait_s_ = 0, step_s_ = 0;
  std::uint64_t batches_ = 0;
};

/// Stack counters that must stay zero on a healthy run, read before
/// teardown (a teardown drops in-flight batches by design).
void check_counters(const StackStats& s, Tally& tally) {
  std::uint64_t errors = 0;
  for (const auto& d : s.daemons) errors += d.errors;
  const auto& r = s.receiver;
  const std::pair<const char*, std::uint64_t> counters[] = {
      {"daemon errors", errors},
      {"receiver decode_errors", r.decode_errors},
      {"receiver dropped_on_close", r.dropped_on_close},
      {"receiver dropped_dead_sender", r.dropped_dead_sender},
      {"receiver epochs_repaired", r.epochs_repaired},
      {"pipeline checksum_failures", s.pipeline.checksum_failures},
  };
  for (const auto& [name, value] : counters) {
    if (value != 0) tally.problem(value, std::string(name) + " = " + std::to_string(value));
  }
}

/// Hand the heap's free pages back to the kernel after a stack is torn
/// down, so the next stack starts from a heap like a fresh process's and
/// resident-memory figures show live memory, not the allocator's leftovers.
void release_freed_memory() { malloc_trim(0); }

/// `n` timed fresh starts, after one untimed start when `warm_first` (the
/// first start in a process runs slower). Each start's first batch is
/// checked in full.
std::vector<SetupPhases> measure_setup(const Workload& w, const Dataset& ds, std::uint64_t seed,
                                       int n, bool warm_first, Tally& tally) {
  std::vector<SetupPhases> out;
  Consumer checker(ds, tally);
  for (int i = warm_first ? 0 : 1; i <= n; ++i) {
    SetupPhases ph;
    std::optional<Delivery> d;
    {
      Stack stack(w, ds, seed, /*trace=*/false, ph);
      const double t = now_s();
      d = stack.next();
      ph.first_batch_s = now_s() - t;
    }
    release_freed_memory();
    if (!d || d->epoch_end || d->batch.samples.empty()) {
      tally.problem(1, "fresh start delivered no batch");
      continue;
    }
    tally.attempted += d->batch.samples.size();
    if (d->checksum_failures > 0) {
      tally.problem(d->checksum_failures, "fresh start: pipeline checksum failures");
    }
    for (const auto& s : d->batch.samples) {
      if (!checker.sample_ok(s, 1)) tally.problem(1, "fresh start: bad sample");
    }
    if (i > 0) out.push_back(ph);
  }
  return out;
}

/// A stack's untimed warm-up epoch (fully checked) and then timed epochs
/// until `seconds` of them have passed.
std::vector<Consumer::Epoch> timed_epochs(Stack& stack, Consumer& c, const Workload& w,
                                          double seconds) {
  c.run_epoch(stack, 1);
  std::vector<Consumer::Epoch> epochs;
  double elapsed = 0;
  while (elapsed < seconds) {
    epochs.push_back(c.run_epoch(stack, w.check_every));
    elapsed += epochs.back().wall_s;
  }
  return epochs;
}

struct Rates {
  std::vector<double> samples_per_s, cpu_s_per_gb, j_per_gb;
};

Rates epoch_rates(const std::vector<Consumer::Epoch>& epochs, const Dataset& ds, double cores) {
  const auto package = em::energy::presets::xeon_gold_6126_dual();
  Rates r;
  for (const auto& e : epochs) {
    const double gb = static_cast<double>(ds.payload_bytes) / 1e9 *
                      static_cast<double>(e.samples) / static_cast<double>(ds.samples);
    r.samples_per_s.push_back(static_cast<double>(e.samples) / e.wall_s);
    r.cpu_s_per_gb.push_back(e.cpu_s / gb);
    r.j_per_gb.push_back(joules_per_gb(package, cores, e.wall_s, e.cpu_s, gb));
  }
  return r;
}

void print_spread(const char* name, const std::vector<double>& v, const char* unit) {
  std::printf("  %-14s median %.6g %s  q1 %.6g  q3 %.6g  (n=%zu)\n", name, median(v), unit,
              quantile(v, 0.25), quantile(v, 0.75), v.size());
}

using Metrics = std::map<std::string, std::pair<double, std::string>>;

// ------------------------------------------------------------ --trace 0

void run_end_to_end(const Workload& w, const Dataset& ds, const Args& a, Tally& tally,
                    Metrics& m) {
  // Half the fresh starts run before the measured stack and half after, so
  // setup_s samples two moments of a host whose load drifts.
  std::vector<double> setup;
  auto starts = [&](int n, bool warm_first) {
    for (const auto& ph : measure_setup(w, ds, a.seed, n, warm_first, tally)) {
      setup.push_back(ph.total());
    }
  };
  starts(w.setup_starts / 2, /*warm_first=*/true);

  std::vector<Consumer::Epoch> epochs;
  const CpuTimes host0 = read_cpu_times();
  {
    SetupPhases ph;
    Stack stack(w, ds, a.seed, /*trace=*/false, ph);
    Consumer consumer(ds, tally);
    epochs = timed_epochs(stack, consumer, w, a.seconds);
    check_counters(stack.stats(), tally);
  }
  const double steal = steal_share(host0, read_cpu_times());
  // Each fresh start before it held one batch and trimmed the heap after
  // itself, so this peak is the measured stack's.
  const double hwm_mb = static_cast<double>(status_kb(read_status(), "VmHWM")) * 1024.0 / 1e6;
  release_freed_memory();
  starts(w.setup_starts - w.setup_starts / 2, /*warm_first=*/false);

  const Rates r = epoch_rates(epochs, ds, a.energy_cores);
  std::printf(
      "%s: %zu timed epochs of %llu samples, dataset %.1f MB, peak RSS %.1f MB, "
      "host CPU stolen by the hypervisor %.1f%%\n",
      w.name, epochs.size(), static_cast<unsigned long long>(ds.samples),
      static_cast<double>(ds.payload_bytes) / 1e6, hwm_mb, 100 * steal);
  print_spread("samples_per_s", r.samples_per_s, "1/s");
  print_spread("cpu_s_per_gb", r.cpu_s_per_gb, "s/GB");
  print_spread("j_per_gb", r.j_per_gb, "J/GB");
  print_spread("setup_s", setup, "s");

  m["samples_per_s"] = {median(r.samples_per_s), "1/s"};
  m["cpu_s_per_gb"] = {median(r.cpu_s_per_gb), "s/GB"};
  m["j_per_gb"] = {median(r.j_per_gb), "J/GB"};
  m["setup_s"] = {median(setup), "s"};
  m["peak_rss_mb"] = {hwm_mb, "MB"};
}

// ------------------------------------------------------------ --trace 1

/// Samples RssAnon + RssShmem every 10 ms and keeps the peak.
class MemSampler {
 public:
  MemSampler() : thread_([this] { loop(); }) {}
  ~MemSampler() { stop(); }
  double stop() {
    if (thread_.joinable()) {
      done_.store(true);
      thread_.join();
    }
    return peak_mb_;
  }

 private:
  void loop() {
    while (!done_.load()) {
      peak_mb_ = std::max(peak_mb_, anon_mb(read_status()));
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  std::atomic<bool> done_{false};
  double peak_mb_ = 0;
  std::thread thread_;
};

/// Sum of the daemons' counters (the fan-in workload runs two).
struct DaemonTotals {
  std::uint64_t batches = 0, store_reads = 0, hits = 0, misses = 0, inserts = 0, evictions = 0,
                pinned_skips = 0, reused = 0, allocated = 0, enqueue_stalls = 0,
                sender_stalls = 0, wire_syscalls = 0;
  explicit DaemonTotals(const StackStats& s) {
    for (const auto& d : s.daemons) {
      batches += d.batches_sent;
      store_reads += d.store_reads;
      hits += d.cache.hits;
      misses += d.cache.misses;
      inserts += d.cache.inserts;
      evictions += d.cache.evictions;
      pinned_skips += d.cache.pinned_skips;
      reused += d.encode_pool.reused;
      allocated += d.encode_pool.allocated;
      enqueue_stalls += d.enqueue_stalls;
      sender_stalls += d.sender_stalls;
      wire_syscalls += d.wire_syscalls;
    }
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Daemon stage p50 (or p99) in µs, worst daemon. The stage histograms
/// cover the traced stack's whole life, warm-up epoch included.
double daemon_stage_us(const StackStats& s, em::obs::Stage stage, bool p99) {
  double worst = 0;
  for (const auto& d : s.daemons) {
    for (const auto& row : d.latency) {
      if (row.stage == em::obs::to_string(stage)) {
        worst = std::max(worst, (p99 ? row.p99_ns : row.p50_ns) / 1e3);
      }
    }
  }
  return worst;
}

using StageSnaps = std::vector<em::obs::LatencyHistogram::Snapshot>;

StageSnaps receiver_snapshots(const Stack& stack) {
  StageSnaps out;
  const auto& tracer = stack.receiver_tracer();
  for (std::size_t i = 0; i < em::obs::kStageCount; ++i) {
    out.push_back(tracer.stage_histogram(static_cast<em::obs::Stage>(i)).snapshot());
  }
  return out;
}

void run_traced(const Workload& w, const Dataset& ds, const Args& a, Tally& tally, Metrics& m) {
  const double window = a.seconds / 2;
  // The traced stack runs first, so the memory sampled while it lives is
  // its own and not what earlier stacks left in the heap.
  MemSampler mem;
  SetupPhases ph;
  Stack stack(w, ds, a.seed, /*trace=*/true, ph);
  Consumer consumer(ds, tally);
  consumer.run_epoch(stack, 1);  // warm-up
  const StackStats s0 = stack.stats();
  const StageSnaps rx0 = receiver_snapshots(stack);
  const double feeder0 = stack.feeder_source_seconds();
  const double wait0 = consumer.wait_s(), step0 = consumer.step_s();
  const std::uint64_t batches0 = consumer.batches();
  std::vector<Consumer::Epoch> epochs;
  double wall = 0;
  while (wall < window) {
    epochs.push_back(consumer.run_epoch(stack, w.check_every));
    wall += epochs.back().wall_s;
  }
  const StackStats s1 = stack.stats();
  const StageSnaps rx1 = receiver_snapshots(stack);
  const double feeder_s = stack.feeder_source_seconds() - feeder0;
  const double wait_s = consumer.wait_s() - wait0, step_s = consumer.step_s() - step0;
  const auto steps = static_cast<double>(consumer.batches() - batches0);
  consumer.run_epoch(stack, 1);  // fully checked verification epoch
  check_counters(stack.stats(), tally);
  stack.stop();
  m["mem.peak_anon_mb"] = {mem.stop(), "MB"};
  release_freed_memory();

  double untraced_sps = 0;
  {
    SetupPhases untraced_ph;
    Stack untraced(w, ds, a.seed, /*trace=*/false, untraced_ph);
    Consumer c(ds, tally);
    untraced_sps = median(
        epoch_rates(timed_epochs(untraced, c, w, window), ds, a.energy_cores).samples_per_s);
    check_counters(untraced.stats(), tally);
  }
  release_freed_memory();

  std::vector<double> index_load, start, first_batch;
  for (const auto& p : measure_setup(w, ds, a.seed, w.setup_starts, true, tally)) {
    index_load.push_back(p.index_load_s);
    start.push_back(p.start_s);
    first_batch.push_back(p.first_batch_s);
  }
  m["setup.index_load_s"] = {median(index_load), "s"};
  m["setup.start_s"] = {median(start), "s"};
  m["setup.first_batch_s"] = {median(first_batch), "s"};

  const double traced_sps = median(epoch_rates(epochs, ds, a.energy_cores).samples_per_s);
  const auto E = static_cast<double>(epochs.size());
  const DaemonTotals d0(s0), d1(s1);
  const auto dB = static_cast<double>(d1.batches - d0.batches);
  const auto rB = static_cast<double>(s1.receiver.batches_received - s0.receiver.batches_received);
  auto rx_us = [&](em::obs::Stage st, double p) {
    const auto i = static_cast<std::size_t>(st);
    return rx1[i].delta(rx0[i]).quantile(p) / 1e3;
  };
  using em::obs::Stage;

  m["daemon.read_p50_us"] = {daemon_stage_us(s1, Stage::kRead, false), "us"};
  m["daemon.read_p99_us"] = {daemon_stage_us(s1, Stage::kRead, true), "us"};
  m["daemon.store_reads_per_epoch"] = {(d1.store_reads - d0.store_reads) / E, "count"};
  const double hits = d1.hits - d0.hits, misses = d1.misses - d0.misses;
  m["cache.hit_ratio"] = {ratio(hits, hits + misses), "ratio"};
  m["cache.inserts_per_epoch"] = {(d1.inserts - d0.inserts) / E, "count"};
  m["cache.evictions_per_epoch"] = {(d1.evictions - d0.evictions) / E, "count"};
  m["cache.pinned_skips_per_epoch"] = {(d1.pinned_skips - d0.pinned_skips) / E, "count"};
  m["daemon.encode_p50_us"] = {daemon_stage_us(s1, Stage::kEncode, false), "us"};
  m["receiver.decode_p50_us"] = {rx_us(Stage::kDecode, 0.5), "us"};
  m["receiver.decode_us_per_batch"] = {
      ratio((s1.receiver.decode_ns - s0.receiver.decode_ns) / 1e3, rB), "us"};
  const double reused = d1.reused - d0.reused, allocated = d1.allocated - d0.allocated;
  m["daemon.encode_buffer_reuse_ratio"] = {ratio(reused, reused + allocated), "ratio"};
  m["daemon.enqueue_stalls_per_batch"] = {ratio(d1.enqueue_stalls - d0.enqueue_stalls, dB),
                                          "1/batch"};
  m["daemon.sender_stalls_per_batch"] = {ratio(d1.sender_stalls - d0.sender_stalls, dB),
                                         "1/batch"};
  m["daemon.lane_wait_p50_us"] = {daemon_stage_us(s1, Stage::kLaneWait, false), "us"};
  m["daemon.lane_wait_p99_us"] = {daemon_stage_us(s1, Stage::kLaneWait, true), "us"};
  m["daemon.wire_syscalls_per_batch"] = {ratio(d1.wire_syscalls - d0.wire_syscalls, dB),
                                         "1/batch"};
  m["daemon.wire_p50_us"] = {daemon_stage_us(s1, Stage::kWire, false), "us"};
  m["daemon.wire_p99_us"] = {daemon_stage_us(s1, Stage::kWire, true), "us"};
  m["receiver.wire_p50_us"] = {rx_us(Stage::kWire, 0.5), "us"};
  m["receiver.decode_stalls_per_batch"] = {
      ratio(s1.receiver.decode_stalls - s0.receiver.decode_stalls, rB), "1/batch"};
  m["receiver.resequence_stalls_per_batch"] = {
      ratio(s1.receiver.resequence_stalls - s0.receiver.resequence_stalls, rB), "1/batch"};
  for (auto st : {Stage::kIngest, Stage::kDecodeWait, Stage::kResequence, Stage::kDeliver}) {
    const std::string name = std::string("receiver.") + em::obs::to_string(st);
    m[name + "_p50_us"] = {rx_us(st, 0.5), "us"};
    m[name + "_p99_us"] = {rx_us(st, 0.99), "us"};
  }
  m["receiver.queue_peak_depth"] = {static_cast<double>(s1.receiver.queue_peak_depth), "count"};
  m["pipeline.source_wait_share"] = {ratio(feeder_s, wall), "ratio"};
  m["train.data_wait_share"] = {ratio(wait_s, wall), "ratio"};
  m["train.step_us_per_batch"] = {ratio(step_s * 1e6, steps), "us"};
  m["trace.overhead_share"] = {1.0 - ratio(traced_sps, untraced_sps), "ratio"};

  // Layer isolation.
  const double budget = std::max(1.0, a.seconds / 8);
  const auto runs = run_isolation(w, ds, a.seed, budget);
  const auto package = em::energy::presets::xeon_gold_6126_dual();
  std::map<std::string, const LayerRun*> by_layer;
  std::printf("%s layer isolation (%.1f s each):\n", w.name, budget);
  const LayerRun* lowest = nullptr;
  for (const auto& r : runs) {
    by_layer[r.layer] = &r;
    std::printf("  %-15s %9.3f GB/s  %11.0f samples/s  %7.3f cpu-s/GB\n", r.layer.c_str(),
                r.gb_per_s(), r.samples_per_s(), r.cpu_s_per_gb());
    if (!lowest || r.gb_per_s() < lowest->gb_per_s()) lowest = &r;
  }
  const std::string predicted = w.predicted_ceiling;
  std::printf("%s lowest ceiling: %s at %.3f GB/s (predicted %s: %s)\n", w.name,
              lowest->layer.c_str(), lowest->gb_per_s(), predicted.c_str(),
              lowest->layer == predicted ? "agrees" : "DISAGREES");

  auto layer = [&](const char* name) -> LayerRun {
    auto it = by_layer.find(name);
    return it == by_layer.end() ? LayerRun{} : *it->second;
  };
  m["tfrecord.read_gb_per_s"] = {layer("tfrecord").gb_per_s(), "GB/s"};
  m["msgpack.encode_gb_per_s"] = {layer("msgpack_encode").gb_per_s(), "GB/s"};
  m["msgpack.decode_gb_per_s"] = {layer("msgpack_decode").gb_per_s(), "GB/s"};
  m["daemon.null_sink_gb_per_s"] = {layer("daemon").gb_per_s(), "GB/s"};
  m["daemon.null_sink_cpu_s_per_gb"] = {layer("daemon").cpu_s_per_gb(), "s/GB"};
  m["net.transport_gb_per_s"] = {layer("net").gb_per_s(), "GB/s"};
  m["net.transport_cpu_s_per_gb"] = {layer("net").cpu_s_per_gb(), "s/GB"};
  m["receiver.replay_gb_per_s"] = {layer("receiver").gb_per_s(), "GB/s"};
  m["receiver.replay_cpu_s_per_gb"] = {layer("receiver").cpu_s_per_gb(), "s/GB"};
  m["pipeline.replay_samples_per_s"] = {layer("pipeline").samples_per_s(), "1/s"};
  m["pipeline.cpu_s_per_gb"] = {layer("pipeline").cpu_s_per_gb(), "s/GB"};
  for (const char* name :
       {"tfrecord", "msgpack_encode", "msgpack_decode", "daemon", "net", "receiver", "pipeline"}) {
    const LayerRun r = layer(name);
    m[std::string("energy.") + name + ".j_per_gb"] = {
        joules_per_gb(package, a.energy_cores, r.wall_s, r.cpu_s, r.gb), "J/GB"};
  }

  if (w.cache_fraction == 0) {
    std::printf("note: cache.* are 0 on %s: the cache is off\n", w.name);
  }
  if (w.pipeline_workers == 0) {
    std::printf("note: pipeline.* and energy.pipeline.j_per_gb are 0 on %s: no pipeline\n",
                w.name);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  const Workload* w = find_workload(a.workload);
  if (!w) usage(("unknown workload " + a.workload).c_str());
  // Every teardown cuts a stream mid-epoch, which the transports log as
  // errors; the run's health is read from the engines' counters instead.
  em::log::set_level(em::log::Level::kOff);

  Tally tally;
  Metrics m;
  try {
    const Dataset ds = generate_dataset(*w, a.seed, a.data, 4);
    if (a.trace) {
      run_traced(*w, ds, a, tally, m);
    } else {
      run_end_to_end(*w, ds, a, tally, m);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loadbench: %s\n", e.what());
    return 1;
  }

  for (const auto& p : tally.problems) std::printf("FAILED: %s\n", p.c_str());
  em::json::Object metrics;
  for (const auto& [name, vu] : m) {
    metrics[name] = em::json::Object{{"value", vu.first}, {"unit", vu.second}};
  }
  em::json::Object result{{"correct", tally.problems.empty()},
                          {"attempted", tally.attempted},
                          {"failed", tally.failed},
                          {"metrics", std::move(metrics)}};
  std::printf("%s\n", em::json::Value(std::move(result)).dump().c_str());
  return 0;
}
