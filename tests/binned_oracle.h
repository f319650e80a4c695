// Reference bin build for the binned-training tests: the straightforward
// sort + distinct-count + binary-search construction of a feature's bin
// boundaries and codes. `BinnedDataset::Build` must reproduce its bounds
// and codes bit for bit; it is kept here, not in src/, because its only
// job is to check the production path.
#ifndef XAIDB_TESTS_BINNED_ORACLE_H_
#define XAIDB_TESTS_BINNED_ORACLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace xai::oracle {

/// Midpoint between two consecutive distinct raw values, falling back to
/// the left value when the midpoint rounds onto a neighbor.
inline double Midpoint(double lo, double hi) {
  const double mid = 0.5 * (lo + hi);
  if (mid >= hi) return lo;
  return mid < lo ? lo : mid;
}

/// Bin boundaries of `n` finite values under `max_bins`: midpoints between
/// all distinct values when there are at most `max_bins` of them,
/// otherwise midpoints at the distinct values carrying the sample ranks
/// k*n/max_bins, deduplicated.
inline std::vector<double> BinBounds(const double* values, size_t n,
                                     int max_bins) {
  std::vector<double> bounds;
  if (n == 0) return bounds;

  std::vector<double> sorted(values, values + n);
  std::sort(sorted.begin(), sorted.end());

  std::vector<double> distinct;
  std::vector<size_t> count;
  for (size_t i = 0; i < n;) {
    size_t j = i;
    while (j < n && sorted[j] == sorted[i]) ++j;
    distinct.push_back(sorted[i]);
    count.push_back(j - i);
    i = j;
  }
  const size_t num_distinct = distinct.size();
  if (num_distinct <= 1) return bounds;

  if (num_distinct <= static_cast<size_t>(max_bins)) {
    for (size_t i = 0; i + 1 < num_distinct; ++i)
      bounds.push_back(Midpoint(distinct[i], distinct[i + 1]));
  } else {
    size_t cum = count[0];
    size_t j = 0;
    for (int k = 1; k < max_bins; ++k) {
      const size_t rank =
          (static_cast<size_t>(k) * n) / static_cast<size_t>(max_bins);
      while (cum <= rank && j + 1 < num_distinct) cum += count[++j];
      if (j + 1 >= num_distinct) break;
      const double b = Midpoint(distinct[j], distinct[j + 1]);
      if (bounds.empty() || b > bounds.back()) bounds.push_back(b);
    }
  }
  return bounds;
}

/// Bin code of every value: the first bound >= v, by binary search.
inline std::vector<uint32_t> BinCodes(const double* values, size_t n,
                                      const std::vector<double>& bounds) {
  std::vector<uint32_t> codes(n);
  for (size_t i = 0; i < n; ++i)
    codes[i] = static_cast<uint32_t>(
        std::lower_bound(bounds.begin(), bounds.end(), values[i]) -
        bounds.begin());
  return codes;
}

}  // namespace xai::oracle

#endif  // XAIDB_TESTS_BINNED_ORACLE_H_
