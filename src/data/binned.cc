#include "data/binned.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "common/thread_pool.h"
#include "obs/obs.h"

namespace xai {

namespace {

// LSD radix sort of 64-bit keys in 11-bit digits: 6 passes (the last digit
// has 9 bits), each with a 2048-entry histogram.
constexpr int kDigitBits = 11;
constexpr int kPasses = 6;
constexpr size_t kBuckets = size_t{1} << kDigitBits;
constexpr uint64_t kDigitMask = kBuckets - 1;
constexpr uint64_t kSignBit = uint64_t{1} << 63;
// Keys of -Inf and +Inf. Every finite value's key lies strictly between
// them; every NaN's key lies outside.
constexpr uint64_t kNegInfKey = 0x000FFFFFFFFFFFFFull;
constexpr uint64_t kPosInfKey = 0xFFF0000000000000ull;

/// Order-preserving map of a double onto an unsigned key: set the sign bit
/// of a non-negative value, flip every bit of a negative one. `+ 0.0`
/// first turns -0.0 into +0.0, so the two zeros share a key just as they
/// compare equal.
uint64_t KeyOf(double v) {
  v += 0.0;
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return (bits & kSignBit) ? ~bits : bits | kSignBit;
}

/// Inverse of KeyOf.
double ValueOf(uint64_t key) {
  const uint64_t bits = (key & kSignBit) ? key ^ kSignBit : ~key;
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// Midpoint between two consecutive distinct raw values — the threshold
/// the exact learner would write for a split between them. Falls back to
/// the left value when the midpoint rounds onto a neighbor (adjacent
/// representable doubles), keeping `lo <= mid < hi` so routing stays
/// consistent with `v <= mid`.
double Midpoint(double lo, double hi) {
  const double mid = 0.5 * (lo + hi);
  if (mid >= hi) return lo;
  return mid < lo ? lo : mid;
}

/// Working memory of one chunk of features, reused feature after feature:
/// the ping-pong key and row buffers of the radix passes and the digit
/// histograms of all passes.
struct SortScratch {
  explicit SortScratch(size_t n)
      : keys(n), keys_alt(n), rows(n), rows_alt(n), hist(kPasses * kBuckets) {}

  std::vector<uint64_t> keys, keys_alt;
  std::vector<uint32_t> rows, rows_alt;
  std::vector<uint32_t> hist;
};

/// Sorts column f of x into s->keys (ascending) with s->rows holding each
/// key's row. One strided gather reads the column and fills the histograms
/// of all passes; a pass whose digit is the same for every key would move
/// nothing and is skipped.
void SortColumn(const Matrix& x, size_t f, SortScratch* s) {
  const size_t n = x.rows();
  const size_t stride = x.cols();
  const double* col = x.data().data() + f;
  uint32_t* hist = s->hist.data();
  std::fill(s->hist.begin(), s->hist.end(), 0u);
  {
    uint64_t* keys = s->keys.data();
    uint32_t* rows = s->rows.data();
    for (size_t i = 0; i < n; ++i) {
      const uint64_t k = KeyOf(col[i * stride]);
      keys[i] = k;
      rows[i] = static_cast<uint32_t>(i);
      for (int p = 0; p < kPasses; ++p)
        ++hist[p * kBuckets + ((k >> (p * kDigitBits)) & kDigitMask)];
    }
  }
  for (int p = 0; p < kPasses; ++p) {
    const int shift = p * kDigitBits;
    uint32_t* h = hist + p * kBuckets;
    if (h[(s->keys[0] >> shift) & kDigitMask] == n) continue;
    uint32_t offset = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const uint32_t c = h[b];
      h[b] = offset;
      offset += c;
    }
    const uint64_t* keys = s->keys.data();
    const uint32_t* rows = s->rows.data();
    uint64_t* keys_out = s->keys_alt.data();
    uint32_t* rows_out = s->rows_alt.data();
    for (size_t i = 0; i < n; ++i) {
      const uint64_t k = keys[i];
      const uint32_t pos = h[(k >> shift) & kDigitMask]++;
      keys_out[pos] = k;
      rows_out[pos] = rows[i];
    }
    s->keys.swap(s->keys_alt);
    s->rows.swap(s->rows_alt);
  }
}

/// Collapses the n sorted keys into their distinct keys (s->keys_alt) and
/// multiplicities (s->rows_alt), ascending; returns how many there are.
size_t CountDistinct(size_t n, SortScratch* s) {
  const uint64_t* keys = s->keys.data();
  uint64_t* distinct = s->keys_alt.data();
  uint32_t* count = s->rows_alt.data();
  size_t num_distinct = 0;
  for (size_t i = 0; i < n;) {
    size_t j = i + 1;
    while (j < n && keys[j] == keys[i]) ++j;
    distinct[num_distinct] = keys[i];
    count[num_distinct] = static_cast<uint32_t>(j - i);
    ++num_distinct;
    i = j;
  }
  return num_distinct;
}

/// Bin boundaries of a column of n values from its distinct keys and
/// their multiplicities (see BinMapper for the rule).
std::vector<double> BinBounds(const uint64_t* distinct, const uint32_t* count,
                              size_t num_distinct, size_t n, int max_bins) {
  std::vector<double> bounds;
  if (num_distinct <= 1) return bounds;  // Constant column: one bin.

  if (num_distinct <= static_cast<size_t>(max_bins)) {
    // Exact mode: one bin per distinct value, boundaries at the midpoints
    // the sort-based learner evaluates.
    bounds.reserve(num_distinct - 1);
    for (size_t i = 0; i + 1 < num_distinct; ++i)
      bounds.push_back(
          Midpoint(ValueOf(distinct[i]), ValueOf(distinct[i + 1])));
  } else {
    // Quantile mode: close a bin after the distinct value that carries the
    // sample at rank k*n/max_bins, k = 1..max_bins-1. A heavy value can
    // swallow several ranks; duplicates collapse, so num_bins <= max_bins.
    bounds.reserve(static_cast<size_t>(max_bins) - 1);
    size_t cum = count[0];  // Samples in distinct[0..j].
    size_t j = 0;           // Current distinct value.
    for (int k = 1; k < max_bins; ++k) {
      const size_t rank =
          (static_cast<size_t>(k) * n) / static_cast<size_t>(max_bins);
      while (cum <= rank && j + 1 < num_distinct) cum += count[++j];
      if (j + 1 >= num_distinct) break;  // Tail fits in the last bin.
      const double b =
          Midpoint(ValueOf(distinct[j]), ValueOf(distinct[j + 1]));
      if (bounds.empty() || b > bounds.back()) bounds.push_back(b);
    }
  }
  return bounds;
}

/// Writes every row's bin code by walking the rows in sorted order with a
/// bin cursor that only moves up: the code of a distinct value is the
/// first bin whose bound is >= it, exactly BinMapper::CodeOf.
template <typename Code>
void WriteCodes(const SortScratch& s, size_t num_distinct,
                const std::vector<double>& bounds, Code* codes) {
  const uint64_t* distinct = s.keys_alt.data();
  const uint32_t* count = s.rows_alt.data();
  const uint32_t* rows = s.rows.data();
  size_t bin = 0;
  size_t pos = 0;
  for (size_t j = 0; j < num_distinct; ++j) {
    const double v = ValueOf(distinct[j]);
    while (bin < bounds.size() && bounds[bin] < v) ++bin;
    const Code code = static_cast<Code>(bin);
    for (const size_t end = pos + count[j]; pos < end; ++pos)
      codes[rows[pos]] = code;
  }
}

size_t FirstNonFiniteRow(const Matrix& x, size_t f) {
  for (size_t i = 0; i < x.rows(); ++i)
    if (!std::isfinite(x(i, f))) return i;
  return x.rows();
}

}  // namespace

uint32_t BinMapper::CodeOf(double v) const {
  // First bound >= v; one past the last bound = the unbounded top bin.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  return static_cast<uint32_t>(it - bounds_.begin());
}

Result<BinnedDataset> BinnedDataset::Build(const Matrix& x, int max_bins) {
  if (max_bins < 2 || max_bins > 65536)
    return Status::InvalidArgument(
        "BinnedDataset: max_bins must be in [2, 65536]");
  if (x.empty())
    return Status::InvalidArgument("BinnedDataset: empty matrix");
  if (x.rows() > std::numeric_limits<uint32_t>::max())
    return Status::InvalidArgument("BinnedDataset: more than 2^32 - 1 rows");

  XAI_OBS_SPAN("train.bin_build");
  obs::Stopwatch watch;

  const size_t n = x.rows();
  const size_t d = x.cols();
  BinnedDataset ds;
  ds.rows_ = n;
  ds.max_bins_ = max_bins;
  ds.mappers_.resize(d);
  ds.codes8_.resize(d);
  ds.codes16_.resize(d);
  ds.bin_offsets_.resize(d);

  // Features are independent: one chunk of consecutive features per pool
  // participant, each with one scratch reused across its features. A
  // 1-thread pool runs the single chunk inline.
  std::vector<size_t> bad_row(d, n);  // First non-finite row per feature.
  ThreadPool& pool = GlobalPool();
  const size_t per_chunk = (d + pool.num_threads() - 1) / pool.num_threads();
  const size_t chunks = (d + per_chunk - 1) / per_chunk;
  pool.ParallelFor(0, chunks, 1, [&](size_t c) {
    SortScratch s(n);
    const size_t end = std::min(d, (c + 1) * per_chunk);
    for (size_t f = c * per_chunk; f < end; ++f) {
      SortColumn(x, f, &s);
      if (s.keys[0] <= kNegInfKey || s.keys[n - 1] >= kPosInfKey) {
        bad_row[f] = FirstNonFiniteRow(x, f);
        continue;
      }
      const size_t num_distinct = CountDistinct(n, &s);
      ds.mappers_[f] = BinMapper(BinBounds(s.keys_alt.data(),
                                           s.rows_alt.data(), num_distinct,
                                           n, max_bins));
      const BinMapper& m = ds.mappers_[f];
      if (m.num_bins() <= 256) {
        ds.codes8_[f].resize(n);
        WriteCodes(s, num_distinct, m.bounds(), ds.codes8_[f].data());
      } else {
        ds.codes16_[f].resize(n);
        WriteCodes(s, num_distinct, m.bounds(), ds.codes16_[f].data());
      }
    }
  });

  for (size_t f = 0; f < d; ++f) {
    if (bad_row[f] < n)
      return Status::InvalidArgument(
          "BinnedDataset: non-finite value in feature " + std::to_string(f) +
          " at row " + std::to_string(bad_row[f]));
    ds.bin_offsets_[f] = ds.total_bins_;
    ds.total_bins_ += static_cast<size_t>(ds.mappers_[f].num_bins());
  }

  XAI_OBS_COUNT("train.bin_builds");
  XAI_OBS_OBSERVE("train.bin_build_us", watch.ElapsedUs());
  return ds;
}

}  // namespace xai
