// The benchmark's own arithmetic: order statistics, the modeled-energy
// formula and /proc parsing. Header-only and free of I/O so
// test_bench_math.cpp can pin every formula down with hand-computed cases.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <string_view>
#include <vector>

#include "energy/power_model.h"

namespace loadbench {

/// Quantile `p` in [0, 1] by linear interpolation between closest ranks
/// (Hyndman–Fan type 7, numpy's default). 0 for an empty input.
inline double quantile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  p = std::clamp(p, 0.0, 1.0);
  const double h = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (h - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

/// Modeled CPU-package joules per GB of delivered payload:
///
///   J/GB = (P_idle·wall + (P_peak − P_idle)·min(1, cpu / (wall·C))·wall) / GB
///
/// `package` supplies P_idle and P_peak (energy::PowerModel clamps the
/// utilization to [0, 1]); `cores` is C, the modeled package's core count.
/// 0 when nothing was delivered or no time passed.
inline double joules_per_gb(const emlio::energy::PowerModel& package, double cores, double wall_s,
                            double cpu_s, double gb) {
  if (gb <= 0.0 || wall_s <= 0.0 || cores <= 0.0) return 0.0;
  return package.joules(cpu_s / (wall_s * cores), wall_s) / gb;
}

/// Value of one "Key:   1234 kB" line of /proc/<pid>/status, in kB.
/// -1 when the key is absent or its value does not parse.
inline std::int64_t status_kb(std::string_view status, std::string_view key) {
  std::size_t pos = 0;
  while (pos < status.size()) {
    std::size_t eol = status.find('\n', pos);
    if (eol == std::string_view::npos) eol = status.size();
    std::string_view line = status.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.size() <= key.size() || line.substr(0, key.size()) != key ||
        line[key.size()] != ':') {
      continue;
    }
    std::string_view rest = line.substr(key.size() + 1);
    const std::size_t digits = rest.find_first_not_of(" \t");
    if (digits == std::string_view::npos) return -1;
    rest = rest.substr(digits);
    std::int64_t kb = 0;
    auto [end, ec] = std::from_chars(rest.data(), rest.data() + rest.size(), kb);
    if (ec != std::errc() || end == rest.data()) return -1;
    return kb;
  }
  return -1;
}

/// Resident anonymous plus resident shared-memory bytes (RssAnon +
/// RssShmem), in MB: the memory the loader itself holds, without the
/// file-backed shard pages VmHWM also counts. -1 when either is missing.
inline double anon_mb(std::string_view status) {
  const std::int64_t anon = status_kb(status, "RssAnon");
  const std::int64_t shmem = status_kb(status, "RssShmem");
  if (anon < 0 || shmem < 0) return -1.0;
  return static_cast<double>(anon + shmem) * 1024.0 / 1e6;
}

/// Jiffy counters of the aggregate "cpu" line of /proc/stat.
struct CpuTimes {
  std::uint64_t total = 0;  ///< user..steal, the first eight fields
  std::uint64_t steal = 0;  ///< time the hypervisor ran someone else
};

/// Parses the first line of /proc/stat ("cpu  user nice system idle iowait
/// irq softirq steal ..."). Zeros when the line is not there.
inline CpuTimes parse_cpu_times(std::string_view stat) {
  CpuTimes t;
  if (stat.substr(0, 4) != "cpu ") return t;
  std::size_t pos = 4;
  for (int field = 0; field < 8; ++field) {
    pos = stat.find_first_not_of(' ', pos);
    if (pos == std::string_view::npos) return CpuTimes{};
    std::uint64_t v = 0;
    auto [end, ec] = std::from_chars(stat.data() + pos, stat.data() + stat.size(), v);
    if (ec != std::errc()) return CpuTimes{};
    pos = static_cast<std::size_t>(end - stat.data());
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

/// Share of the host's CPU time stolen by the hypervisor between two
/// samples: a diagnostic for noise the benchmark cannot remove.
inline double steal_share(const CpuTimes& before, const CpuTimes& after) {
  const std::uint64_t total = after.total - before.total;
  return total > 0 ? static_cast<double>(after.steal - before.steal) / static_cast<double>(total)
                   : 0.0;
}

}  // namespace loadbench
