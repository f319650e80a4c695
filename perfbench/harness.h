// Benchmark-side arithmetic shared by perfbench.cc and its unit tests:
// the tail-percentile rule, the seeded open-loop arrival schedule and
// stratified request mix, and span self time.
// Nothing here calls into the library, so harness_test.cc links only this
// header.
#ifndef XAIDB_PERFBENCH_HARNESS_H_
#define XAIDB_PERFBENCH_HARNESS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64: the only random source of the benchmark, so a seed gives the
/// same inputs with any standard library.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Nearest-rank quantile of an ascending-sorted sample: the value at index
/// ceil(q * n) - 1. Returns 0 for an empty sample.
inline double SortedQuantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

/// The tail percentile a sample of n supports: the highest of 99, 95, 90,
/// 75 and 50 that leaves at least ten samples beyond it under the nearest-
/// rank rule. 100 (the maximum) when even the median leaves fewer than ten.
inline int TailPercentile(size_t n) {
  for (int p : {99, 95, 90, 75, 50}) {
    const size_t rank = static_cast<size_t>(
        std::ceil(static_cast<double>(p) * static_cast<double>(n) / 100.0));
    if (n >= rank + 10) return p;
  }
  return 100;
}

/// Median, supported tail and sample count of one latency sample.
struct LatencySummary {
  size_t n = 0;
  double p50 = 0.0;
  int tail_pct = 100;
  double tail = 0.0;
  double max = 0.0;
};

inline LatencySummary Summarize(std::vector<double> v) {
  LatencySummary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.p50 = SortedQuantile(v, 0.5);
  s.tail_pct = TailPercentile(v.size());
  s.tail = SortedQuantile(v, s.tail_pct / 100.0);
  s.max = v.back();
  return s;
}

/// The tail of a sample cut into windows: the percentile the smallest
/// window supports, taken in every window, and the median of those window
/// tails (the mean of the middle two for an even count). Returns
/// {percentile, value}.
inline std::pair<int, double> WindowedTail(
    std::vector<std::vector<double>> windows) {
  size_t smallest = windows.empty() ? 0 : windows[0].size();
  for (const auto& w : windows) smallest = std::min(smallest, w.size());
  const int pct = TailPercentile(smallest);
  std::vector<double> tails;
  for (auto& w : windows) {
    if (w.empty()) continue;
    std::sort(w.begin(), w.end());
    tails.push_back(SortedQuantile(w, pct / 100.0));
  }
  if (tails.empty()) return {pct, 0.0};
  std::sort(tails.begin(), tails.end());
  const size_t m = tails.size();
  return {pct, m % 2 ? tails[m / 2] : 0.5 * (tails[m / 2 - 1] + tails[m / 2])};
}

/// Open-loop Poisson arrival times, in nanoseconds from the phase start:
/// exponential gaps of mean 1/rate drawn by inverse CDF until `seconds`.
inline std::vector<int64_t> PoissonArrivals(uint64_t seed, double rate,
                                            double seconds) {
  std::vector<int64_t> out;
  SplitMix rng(seed);
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.Uniform()) / rate;
    if (t >= seconds) break;
    out.push_back(static_cast<int64_t>(t * 1e9));
  }
  return out;
}

/// One planned request of the serving mix.
struct PlannedRequest {
  int64_t due_ns = 0;   ///< Arrival offset from the phase start.
  bool tree_shap = false;
  bool hot = false;
  size_t row = 0;       ///< Index into the hot set or the fresh pool.
};

/// Requests per stratum of the serving mix (see PlanRequests).
constexpr size_t kMixGroup = 8;

/// Marks `count` of the `n` positions starting at `first` in `flags`,
/// chosen uniformly by a partial Fisher-Yates shuffle.
inline void MarkRandomPositions(SplitMix& rng, size_t first, size_t n,
                                size_t count, std::vector<bool>* flags) {
  std::vector<size_t> pos(n);
  for (size_t i = 0; i < n; ++i) pos[i] = first + i;
  for (size_t k = 0; k < std::min(count, n); ++k) {
    const size_t j = k + static_cast<size_t>(rng.Next() % (n - k));
    std::swap(pos[k], pos[j]);
    (*flags)[pos[k]] = true;
  }
}

/// The serving mix, stratified so every window of requests carries the same
/// work: of each kMixGroup consecutive arrivals, exactly
/// round(kMixGroup * tree_shap_frac) are TreeSHAP (KernelSHAP otherwise) and,
/// drawn independently, exactly round(kMixGroup * hot_frac) ask about a
/// uniformly chosen hot row, at seeded random positions. Every other
/// arrival takes the next row of the fresh pool, starting at `*next_fresh`,
/// so no fresh row is ever asked about twice.
inline std::vector<PlannedRequest> PlanRequests(
    uint64_t seed, const std::vector<int64_t>& arrivals, double tree_shap_frac,
    double hot_frac, size_t hot_rows, size_t* next_fresh) {
  SplitMix rng(seed ^ 0x5bd1e995ULL);
  const size_t n = arrivals.size();
  const auto per_group = [](double frac) {
    return static_cast<size_t>(std::lround(frac * kMixGroup));
  };
  std::vector<bool> tree(n, false), hot(n, false);
  for (size_t g = 0; g < n; g += kMixGroup) {
    const size_t len = std::min(kMixGroup, n - g);
    MarkRandomPositions(rng, g, len, per_group(tree_shap_frac), &tree);
    MarkRandomPositions(rng, g, len, per_group(hot_frac), &hot);
  }
  std::vector<PlannedRequest> out(n);
  for (size_t i = 0; i < n; ++i) {
    PlannedRequest& r = out[i];
    r.due_ns = arrivals[i];
    r.tree_shap = tree[i];
    r.hot = hot[i];
    r.row = r.hot ? static_cast<size_t>(rng.Next() % hot_rows)
                  : (*next_fresh)++;
  }
  return out;
}

/// One timed interval recorded by the benchmark around a call into a
/// layer. `parent` indexes the enclosing span in the same log (-1 for a
/// root); `id` is the request or batch id when one is known (0 otherwise).
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t id = 0;
};

/// In-memory span log; appends are safe from several threads.
class SpanLog {
 public:
  void Add(Span s) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Length of the union of [start, end) intervals, each clipped to
/// [lo, hi). Overlapping children (parallel work under one parent) count
/// once.
inline int64_t UnionLength(std::vector<std::pair<int64_t, int64_t>> iv,
                           int64_t lo, int64_t hi) {
  for (auto& [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(iv.begin(), iv.end());
  int64_t total = 0;
  int64_t cur_a = 0, cur_b = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (b <= a) continue;
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) total += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) total += cur_b - cur_a;
  return total;
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover.
inline std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size())
      kids[static_cast<size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i)
    self[i] = (spans[i].end_ns - spans[i].start_ns) -
              UnionLength(std::move(kids[i]), spans[i].start_ns,
                          spans[i].end_ns);
  return self;
}

/// The layer a span belongs to: its name up to the first '.'. Root spans
/// (the end-to-end operations) are named "e2e.*" and their self time is the
/// table's unattributed remainder.
inline std::string LayerOf(const std::string& name) {
  std::string layer = name.substr(0, name.find('.'));
  return layer == "e2e" ? "unattributed" : layer;
}

/// Per-layer self time, in ns, summing exactly to the total duration of the
/// root spans. A span's self time goes to its layer; the time its children
/// cover is shared among them in proportion to their durations, so
/// children running in parallel split their wall time instead of counting
/// it once per thread.
inline std::vector<std::pair<std::string, double>> LayerTable(
    const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> kids(spans.size());
  std::vector<size_t> roots;
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<size_t>(p) < spans.size())
      kids[static_cast<size_t>(p)].push_back(i);
    else
      roots.push_back(i);
  }
  const std::vector<int64_t> self = SelfTimes(spans);
  std::vector<std::pair<std::string, double>> table;
  auto add = [&](const std::string& layer, double ns) {
    for (auto& [name, v] : table)
      if (name == layer) {
        v += ns;
        return;
      }
    table.emplace_back(layer, ns);
  };
  add("unattributed", 0.0);
  // Explicit stack instead of recursion: (span, weight).
  std::vector<std::pair<size_t, double>> stack;
  for (size_t r : roots) stack.emplace_back(r, 1.0);
  while (!stack.empty()) {
    const auto [i, w] = stack.back();
    stack.pop_back();
    add(LayerOf(spans[i].name), w * static_cast<double>(self[i]));
    if (kids[i].empty()) continue;
    std::vector<std::pair<int64_t, int64_t>> iv;
    double covered_sum = 0.0;
    for (size_t k : kids[i]) {
      const int64_t a = std::max(spans[k].start_ns, spans[i].start_ns);
      const int64_t b = std::min(spans[k].end_ns, spans[i].end_ns);
      iv.emplace_back(a, b);
      if (b > a) covered_sum += static_cast<double>(b - a);
    }
    const double u = static_cast<double>(
        UnionLength(std::move(iv), spans[i].start_ns, spans[i].end_ns));
    const double wk = covered_sum > 0.0 ? w * u / covered_sum : 0.0;
    for (size_t k : kids[i]) {
      // A child's own subtree is scaled to the part of it inside the parent.
      const int64_t dur = spans[k].end_ns - spans[k].start_ns;
      const int64_t inside =
          std::min(spans[k].end_ns, spans[i].end_ns) -
          std::max(spans[k].start_ns, spans[i].start_ns);
      if (dur <= 0 || inside <= 0) continue;
      stack.emplace_back(k, wk * static_cast<double>(inside) /
                                static_cast<double>(dur));
    }
  }
  return table;
}

}  // namespace perfbench

#endif  // XAIDB_PERFBENCH_HARNESS_H_
