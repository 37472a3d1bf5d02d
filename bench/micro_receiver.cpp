// A/B microbench for the compute-side receiver (per-source ingest threads →
// shared decode ThreadPool → Sequencer-ordered delivery): a 1-wide decode
// pool versus a 4-wide one.
//
// Two phases:
//
//   1. Ordered-delivery contract (always runs): a deterministic multi-sender
//      script — sentinel overtakes, epoch reordering, interleaved senders —
//      is replayed at both widths from ONE source (so arrival order is
//      fixed), and the delivered batch streams must be byte-identical and
//      identically ordered. Exit 1 on any divergence.
//
//   2. Decode-throughput A/B (needs ≥4 cores): 4 daemons push decode-heavy
//      batches over 4 sim-transport channels into one receiver (true
//      multi-source fan-in). Width 1 decodes the 4-way fan-in on one worker;
//      width 4 fans it across 4. On a ≥4-core host width 4 must deliver
//      ≥1.5× the decode throughput; below 4 cores the A/B is
//      meaningless (the workers share a core with ingest and the senders),
//      so the bench prints an explicit SKIP, records a skipped JSON row and
//      exits 0 — same protocol as bench_micro_daemon_pipeline.
//
// Appends one JSON row per width (or the skip row) to
// emlio_bench_results.jsonl.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <random>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/receiver.h"
#include "msgpack/batch_codec.h"
#include "net/sim_channel.h"

using namespace emlio;

namespace {

// ----------------------------------------------------------- script helpers

msgpack::WireBatch make_data_batch(std::uint32_t epoch, std::uint64_t batch_id,
                                   std::size_t samples, std::size_t sample_bytes,
                                   std::uint64_t salt) {
  msgpack::WireBatch b;
  b.epoch = epoch;
  b.batch_id = batch_id;
  for (std::size_t s = 0; s < samples; ++s) {
    msgpack::WireSample w;
    w.index = batch_id * samples + s;
    w.label = static_cast<std::int64_t>(s % 17);
    std::vector<std::uint8_t> bytes(sample_bytes);
    for (std::size_t i = 0; i < sample_bytes; ++i) {
      bytes[i] = static_cast<std::uint8_t>((salt * 131 + w.index * 31 + i) & 0xFF);
    }
    w.bytes = PayloadView(std::move(bytes));
    b.samples.push_back(std::move(w));
  }
  return b;
}

/// Single source replaying a fixed payload sequence — deterministic arrival
/// order, so delivery at two pool widths can be compared batch for batch.
struct ReplaySource final : net::MessageSource {
  explicit ReplaySource(std::vector<Payload> payloads) : script(std::move(payloads)) {}
  std::optional<Payload> recv() override {
    std::size_t i = pos.fetch_add(1, std::memory_order_relaxed);
    if (i >= script.size()) return std::nullopt;
    return script[i];  // refcount bump, not a byte copy
  }
  void close() override { pos.store(script.size(), std::memory_order_relaxed); }
  std::vector<Payload> script;
  std::atomic<std::size_t> pos{0};
};

std::vector<msgpack::WireBatch> drain(core::Receiver& receiver) {
  std::vector<msgpack::WireBatch> out;
  while (auto b = receiver.next()) out.push_back(std::move(*b));
  return out;
}

// -------------------------------------------- phase 1: ordered delivery A/B

/// Deterministic nasty script: 2 senders × 3 epochs, random (seeded) merge
/// preserving each sender's order — sentinels overtake data, epoch e+1 data
/// overtakes epoch e's tail.
std::vector<Payload> build_contract_script() {
  constexpr std::size_t kSenders = 2, kEpochs = 3, kBatchesPerEpoch = 8;
  std::vector<std::vector<msgpack::WireBatch>> per_sender(kSenders);
  std::uint64_t next_id = 0;
  for (std::uint32_t e = 0; e < kEpochs; ++e) {
    for (std::size_t s = 0; s < kSenders; ++s) {
      for (std::size_t i = 0; i < kBatchesPerEpoch; ++i) {
        per_sender[s].push_back(make_data_batch(e, next_id++, /*samples=*/4,
                                                /*sample_bytes=*/48, /*salt=*/s));
      }
      per_sender[s].push_back(msgpack::BatchCodec::make_sentinel(0, e, kBatchesPerEpoch));
    }
  }
  // Random merge, per-sender order preserved — exactly what parallel
  // transports can produce.
  std::mt19937 rng(20250728);
  std::vector<std::size_t> cursor(kSenders, 0);
  std::vector<Payload> merged;
  for (;;) {
    std::vector<std::size_t> open;
    for (std::size_t s = 0; s < kSenders; ++s) {
      if (cursor[s] < per_sender[s].size()) open.push_back(s);
    }
    if (open.empty()) break;
    std::size_t s = open[rng() % open.size()];
    merged.push_back(msgpack::BatchCodec::encode(per_sender[s][cursor[s]++]));
  }
  return merged;
}

bool run_contract_phase() {
  auto script = build_contract_script();
  std::vector<msgpack::WireBatch> streams[2];
  for (int wide = 0; wide < 2; ++wide) {
    core::ReceiverConfig rc;
    rc.num_senders = 2;
    rc.queue_capacity = 8;
    rc.decode_threads = wide ? 4 : 1;
    core::Receiver receiver(rc, std::make_unique<ReplaySource>(script));
    streams[wide] = drain(receiver);
  }
  if (streams[0] != streams[1]) {
    std::fprintf(stderr,
                 "micro_receiver: ORDERED-DELIVERY CONTRACT VIOLATED — width 1 delivered "
                 "%zu batches, width 4 %zu, streams differ\n",
                 streams[0].size(), streams[1].size());
    return false;
  }
  std::printf("micro_receiver: contract — widths 1 and 4 delivered byte-identical, "
              "identically-ordered streams (%zu batches incl. epoch markers)\n",
              streams[0].size());
  return true;
}

// ------------------------------------------- phase 2: decode throughput A/B

struct RunResult {
  double seconds = 0.0;
  std::uint64_t batches = 0;
  std::uint64_t samples = 0;
  core::ReceiverStats stats;
};

RunResult run_fan_in(const std::vector<std::vector<Payload>>& per_daemon_payloads,
                     std::size_t decode_threads) {
  const std::size_t daemons = per_daemon_payloads.size();
  net::SimLinkConfig link;
  link.rtt_ms = 0.0;
  link.bandwidth_bytes_per_sec = 5e9;  // fast wire: decode is the narrow stage

  std::vector<std::shared_ptr<net::MessageSink>> sinks;
  std::vector<std::unique_ptr<net::MessageSource>> sources;
  for (std::size_t d = 0; d < daemons; ++d) {
    auto ch = net::make_sim_channel(link);
    sinks.push_back(std::shared_ptr<net::MessageSink>(std::move(ch.sink)));
    sources.push_back(std::move(ch.source));
  }

  core::ReceiverConfig rc;
  rc.num_senders = daemons;
  rc.queue_capacity = 64;
  rc.decode_threads = decode_threads;

  auto t0 = std::chrono::steady_clock::now();
  core::Receiver receiver(rc, std::move(sources));

  std::vector<std::thread> senders;
  for (std::size_t d = 0; d < daemons; ++d) {
    senders.emplace_back([&, d] {
      for (const auto& p : per_daemon_payloads[d]) {
        if (!sinks[d]->send(Payload(p))) return;  // handle copy: refcount bump
      }
      sinks[d]->close();
    });
  }

  RunResult r;
  while (auto b = receiver.next()) {
    if (b->last) break;  // one aggregated marker ends the epoch
    ++r.batches;
    r.samples += b->samples.size();
  }
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  for (auto& t : senders) t.join();
  receiver.close();
  r.stats = receiver.stats();
  return r;
}

json::Value row_for(std::size_t decode_threads, const RunResult& r, double speedup) {
  json::Object row;
  row["bench"] = "micro_receiver";
  row["decode_threads"] = static_cast<std::int64_t>(decode_threads);
  row["cores"] = static_cast<std::int64_t>(std::thread::hardware_concurrency());
  row["epoch_seconds"] = r.seconds;
  row["speedup_vs_width1"] = speedup;
  row["batches"] = static_cast<std::int64_t>(r.batches);
  row["samples"] = static_cast<std::int64_t>(r.samples);
  row["decode_ns"] = static_cast<std::int64_t>(r.stats.decode_ns);
  row["decode_stalls"] = static_cast<std::int64_t>(r.stats.decode_stalls);
  row["resequence_stalls"] = static_cast<std::int64_t>(r.stats.resequence_stalls);
  row["queue_peak_depth"] = static_cast<std::int64_t>(r.stats.queue_peak_depth);
  row["dropped_on_close"] = static_cast<std::int64_t>(r.stats.dropped_on_close);
  return json::Value(std::move(row));
}

}  // namespace

int main() {
  // Phase 1 needs no parallelism to be meaningful — it always runs.
  if (!run_contract_phase()) return 1;

  unsigned cores = std::thread::hardware_concurrency();
  // EMLIO_MICRO_RECEIVER_FORCE=1 runs the throughput phase anyway (smoke
  // testing the fan-in plumbing on small hosts); the ≥1.5x assertion still
  // only applies on ≥4 cores.
  const bool force = std::getenv("EMLIO_MICRO_RECEIVER_FORCE") != nullptr;
  if (!force && cores != 0 && cores < 4) {
    std::printf("micro_receiver: SKIP — %u hardware thread(s); the 4-wide decode pool, the "
                "ingest threads and the 4 sim senders would share cores and the width-1-vs-"
                "width-4 A/B is meaningless. Run on a >=4-core host for the throughput "
                "assertion.\n",
                cores);
    json::Object row;
    row["bench"] = "micro_receiver";
    row["skipped"] = true;
    row["reason"] = "fewer than 4 hardware threads: decode A/B meaningless";
    row["cores"] = static_cast<std::int64_t>(cores);
    bench::append_json_line(json::Value(std::move(row)));
    return 0;
  }

  // Decode-heavy traffic: many small samples per batch makes per-sample
  // header parsing (the decode stage's real cost) dominate the byte moves.
  constexpr std::size_t kDaemons = 4, kBatchesPerDaemon = 160;
  constexpr std::size_t kSamplesPerBatch = 512, kSampleBytes = 96;
  std::vector<std::vector<Payload>> per_daemon(kDaemons);
  std::uint64_t next_id = 0;
  for (std::size_t d = 0; d < kDaemons; ++d) {
    for (std::size_t i = 0; i < kBatchesPerDaemon; ++i) {
      per_daemon[d].push_back(msgpack::BatchCodec::encode(
          make_data_batch(0, next_id++, kSamplesPerBatch, kSampleBytes, d)));
    }
    per_daemon[d].push_back(
        msgpack::BatchCodec::encode(msgpack::BatchCodec::make_sentinel(0, 0, kBatchesPerDaemon)));
  }

  std::printf("micro_receiver: %zu daemons x %zu batches (%zu x %zu B samples), %u cores\n",
              kDaemons, kBatchesPerDaemon, kSamplesPerBatch, kSampleBytes, cores);

  auto narrow = run_fan_in(per_daemon, /*decode_threads=*/1);
  auto wide = run_fan_in(per_daemon, /*decode_threads=*/4);

  const std::uint64_t want = kDaemons * kBatchesPerDaemon;
  if (narrow.batches != want || wide.batches != want) {
    std::fprintf(stderr,
                 "micro_receiver: WRONG BATCH COUNT (width 1 %llu, width 4 %llu, want %llu)\n",
                 static_cast<unsigned long long>(narrow.batches),
                 static_cast<unsigned long long>(wide.batches),
                 static_cast<unsigned long long>(want));
    return 1;
  }

  double speedup = narrow.seconds / wide.seconds;
  std::printf("  width 1 : %.3f s  (decode busy %.1f ms)\n", narrow.seconds,
              static_cast<double>(narrow.stats.decode_ns) / 1e6);
  std::printf("  width 4 : %.3f s  (decode busy %.1f ms, %llu resequence stalls, %llu decode "
              "stalls)  speedup %.2fx\n",
              wide.seconds, static_cast<double>(wide.stats.decode_ns) / 1e6,
              static_cast<unsigned long long>(wide.stats.resequence_stalls),
              static_cast<unsigned long long>(wide.stats.decode_stalls), speedup);
  bench::append_json_line(row_for(1, narrow, 1.0));
  bench::append_json_line(row_for(4, wide, speedup));

  if (speedup < 1.5 && (cores == 0 || cores >= 4)) {
    std::fprintf(stderr,
                 "micro_receiver: FAIL — width-4 decode speedup %.2fx < 1.5x on a %u-core "
                 "host; the decode fan-out is not paying for itself\n",
                 speedup, cores);
    return 1;
  }
  return 0;
}
