// Order statistics for the serving benchmark. Every quantile the
// benchmark prints is exact nearest-rank over the full sample (the same
// convention as obs::HistogramSnapshot::ValueAtQuantile): the q-quantile
// of n sorted values is the value at rank ceil(q * n), clamped to [1, n].

#ifndef SERVEBENCH_STATS_H_
#define SERVEBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace servebench {

/// Nearest-rank q-quantile of `values` (sorts a copy). 0 for an empty
/// sample; q is clamped to [0, 1].
inline double NearestRank(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) * n);
  const std::size_t index =
      static_cast<std::size_t>(std::clamp(rank, 1.0, n)) - 1;
  return values[index];
}

inline double Median(const std::vector<double>& values) {
  return NearestRank(values, 0.5);
}

/// a / b, or 0 when b is 0 (a share over an empty base).
inline double Ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

}  // namespace servebench

#endif  // SERVEBENCH_STATS_H_
