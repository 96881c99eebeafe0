#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

// Order statistics over raw samples. Every quantile the benchmark reports
// comes from here, never from the program's 2x-wide histogram buckets.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank quantile of `samples` (0 when empty). Sorts a copy.
inline double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(q * static_cast<double>(samples.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(samples.size(), static_cast<size_t>(rank)) - 1;
  return samples[index];
}

inline double Median(const std::vector<double>& samples) {
  return Quantile(samples, 0.5);
}

/// The highest of p50/p90/p99/p99.9/p99.99 that has at least ten samples
/// beyond it, as its label ("p99"); "p50" when fewer samples exist.
inline std::string HighestResolvedPercentile(size_t count) {
  static const std::pair<double, const char*> kLevels[] = {
      {0.9999, "p99.99"}, {0.999, "p99.9"}, {0.99, "p99"}, {0.9, "p90"}};
  for (const auto& [q, label] : kLevels) {
    if (static_cast<double>(count) * (1.0 - q) >= 10.0) return label;
  }
  return "p50";
}

inline double HighestResolvedQuantile(const std::vector<double>& samples) {
  const std::string label = HighestResolvedPercentile(samples.size());
  const double q = label == "p50" ? 0.5 : std::stod(label.substr(1)) / 100.0;
  return Quantile(samples, q);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
