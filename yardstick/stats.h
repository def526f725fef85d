// Summary helpers shared by the benchmark and its self-test.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace yardstick {

/// Nearest-rank percentile, p in (0, 100]. Returns 0 for an empty sample.
inline double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(samples.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

/// Median as the mean of the two middle values for an even count (the
/// convention Python's statistics.median uses). Returns 0 when empty.
inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid] : (samples[mid - 1] + samples[mid]) / 2.0;
}

/// num / den, or 0 when there is nothing to divide by (a counter the
/// workload does not arm).
inline double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// Share of generated updates that committed: 1 - failed/generated, where a
/// failed update is one the client gave up on, whose deadline expired before
/// admission, or that was dropped at the queue head. 1 when nothing was
/// generated.
inline double completed_frac(std::uint64_t generated, std::uint64_t failed) {
  if (generated == 0) return 1.0;
  return 1.0 - static_cast<double>(failed) / static_cast<double>(generated);
}

}  // namespace yardstick
