// Order statistics and ratio helpers shared by the benchmark driver and its
// self-tests. Everything here is pure arithmetic on copies of its input.
#ifndef HACKBENCH_SRC_STATS_H_
#define HACKBENCH_SRC_STATS_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace hackbench {

// Median of `v` (mean of the middle pair for an even count); 0 when empty.
inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

// The highest percentile (in whole percent, at most 99) that still has at
// least ten samples above it, or 0 when fewer than 20 samples exist — a
// tail figure with fewer than ten samples beyond it is noise.
inline int SupportedPercentile(size_t samples) {
  if (samples < 20) {
    return 0;
  }
  int p = static_cast<int>(100 - (1000 + samples - 1) / samples);
  return std::min(p, 99);
}

// Nearest-rank percentile (`pct` in 1..100) of `v`; 0 when empty.
inline double Percentile(std::vector<double> v, int pct) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = (static_cast<size_t>(pct) * v.size() + 99) / 100;
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

// a / b, or 0 when b is zero: counters of a layer a workload never runs
// (no TCP on the UDP uplink) read as zero rates, not as NaN.
inline double Ratio(double a, double b) { return b == 0.0 ? 0.0 : a / b; }

}  // namespace hackbench

#endif  // HACKBENCH_SRC_STATS_H_
