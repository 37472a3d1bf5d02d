// Unit tests for bench_math.h: quantiles, the modeled-energy formula and
// /proc/self/status and /proc/stat parsing. Plain asserts, no framework;
// exits 1 on the first mismatch. Built with the benchmark;
// `python3 loadbench/run.py --selftest` runs it.
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "bench_math.h"

namespace {

int g_checks = 0;

void expect_near(double got, double want, const char* what) {
  ++g_checks;
  if (std::fabs(got - want) > 1e-9 * std::max(1.0, std::fabs(want))) {
    std::fprintf(stderr, "FAIL %s: got %.17g, want %.17g\n", what, got, want);
    std::exit(1);
  }
}

void test_quantiles() {
  using loadbench::median;
  using loadbench::quantile;
  expect_near(median({}), 0.0, "median of nothing");
  expect_near(median({7}), 7.0, "median of one");
  expect_near(median({3, 1, 2}), 2.0, "odd median, unsorted input");
  expect_near(median({4, 1, 3, 2}), 2.5, "even median interpolates");
  // Type 7 on 1..5: h = p·(n−1).
  expect_near(quantile({5, 4, 3, 2, 1}, 0.25), 2.0, "q1 of 1..5");
  expect_near(quantile({1, 2, 3, 4, 5}, 0.75), 4.0, "q3 of 1..5");
  expect_near(quantile({1, 2, 3, 4}, 0.25), 1.75, "q1 of 1..4");
  expect_near(quantile({10, 20}, 0.99), 19.9, "p99 of two");
  expect_near(quantile({1, 2, 3}, 0.0), 1.0, "p0 is the minimum");
  expect_near(quantile({1, 2, 3}, 1.0), 3.0, "p100 is the maximum");
  expect_near(quantile({1, 2, 3}, 7.0), 3.0, "p clamps above 1");
}

void test_energy() {
  const auto pkg = emlio::energy::presets::xeon_gold_6126_dual();  // 48 W idle, 250 W peak
  // 2 s wall, 12 cpu-s on C = 24 cores → u = 0.25:
  // (48·2 + 202·0.25·2) / 0.5 GB = (96 + 101) / 0.5 = 394 J/GB.
  expect_near(loadbench::joules_per_gb(pkg, 24, 2.0, 12.0, 0.5), 394.0, "quarter load");
  // Idle process: only the idle floor, 48 W · 1 s / 1 GB.
  expect_near(loadbench::joules_per_gb(pkg, 24, 1.0, 0.0, 1.0), 48.0, "idle floor");
  // More CPU than the package has cores clamps at u = 1: 250 W · 1 s / 2 GB.
  expect_near(loadbench::joules_per_gb(pkg, 4, 1.0, 100.0, 2.0), 125.0, "saturated package");
  expect_near(loadbench::joules_per_gb(pkg, 24, 1.0, 1.0, 0.0), 0.0, "nothing delivered");
  expect_near(loadbench::joules_per_gb(pkg, 24, 0.0, 1.0, 1.0), 0.0, "no time passed");
}

void test_proc_status() {
  const char* status =
      "Name:\tloadbench\n"
      "VmPeak:\t  912340 kB\n"
      "VmHWM:\t  654321 kB\n"
      "VmRSS:\t  600000 kB\n"
      "RssAnon:\t  100000 kB\n"
      "RssFile:\t  480000 kB\n"
      "RssShmem:\t   20000 kB\n"
      "Threads:\t17\n";
  expect_near(static_cast<double>(loadbench::status_kb(status, "VmHWM")), 654321, "VmHWM");
  expect_near(static_cast<double>(loadbench::status_kb(status, "Threads")), 17, "unitless field");
  expect_near(static_cast<double>(loadbench::status_kb(status, "VmSwap")), -1, "absent key");
  // "Vm" must not match "VmPeak": keys match whole.
  expect_near(static_cast<double>(loadbench::status_kb(status, "Vm")), -1, "key prefix");
  expect_near(static_cast<double>(loadbench::status_kb("VmHWM:\tlots kB\n", "VmHWM")), -1,
              "unparsable value");
  expect_near(static_cast<double>(loadbench::status_kb("VmHWM:\t42 kB", "VmHWM")), 42,
              "last line without newline");
  // (100000 + 20000) KiB = 122.88 MB.
  expect_near(loadbench::anon_mb(status), 122.88, "RssAnon + RssShmem");
  expect_near(loadbench::anon_mb("RssAnon:\t1 kB\n"), -1.0, "RssShmem missing");
}

void test_proc_stat() {
  const char* stat =
      "cpu  100 0 50 800 10 0 20 20 0 0\n"
      "cpu0 50 0 25 400 5 0 10 10 0 0\n";
  const auto t0 = loadbench::parse_cpu_times(stat);
  expect_near(static_cast<double>(t0.total), 1000, "first eight fields summed");
  expect_near(static_cast<double>(t0.steal), 20, "eighth field is steal");
  const auto t1 = loadbench::parse_cpu_times("cpu  150 0 75 1145 10 0 30 90 0 0\n");
  // 500 jiffies passed, 70 of them stolen.
  expect_near(loadbench::steal_share(t0, t1), 0.14, "steal share");
  expect_near(loadbench::steal_share(t0, t0), 0.0, "no time passed");
  expect_near(static_cast<double>(loadbench::parse_cpu_times("cpu0 1 2 3").total), 0,
              "not the aggregate line");
  expect_near(static_cast<double>(loadbench::parse_cpu_times("cpu  1 2 3\n").total), 0,
              "truncated line");
}

}  // namespace

int main() {
  test_quantiles();
  test_energy();
  test_proc_status();
  test_proc_stat();
  std::printf("loadbench math: %d checks passed\n", g_checks);
  return 0;
}
