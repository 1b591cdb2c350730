// Nearest-rank percentile over an ascending-sorted sample — the ONE
// quantile convention behind every p50/p99 the server reports (the
// /statsz endpoint latencies and the GraphStore rebuild durations), so
// two reports of the same sample can never silently disagree.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace pathrank {

/// p-quantile of `sorted` (ascending, non-empty) by the nearest-rank
/// convention: the smallest element whose cumulative frequency is >= p,
/// i.e. index ceil(p * n) - 1, clamped to [0, n-1]. (The previous
/// floor(p * n) indexing was one rank too high whenever p * n landed on
/// an integer: the p50 of 4 samples returned the 3rd, not the 2nd.)
inline double PercentileSorted(const std::vector<double>& sorted, double p) {
  const double rank =
      std::ceil(p * static_cast<double>(sorted.size()));
  const size_t index = rank <= 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(sorted.size() - 1, index)];
}

}  // namespace pathrank
