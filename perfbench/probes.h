// Benchmark-side layer probes: a timing decorator around GBDT prediction,
// and standalone timings of ParallelFor dispatch, bin build and one
// histogram tree fit. They call only public library functions.
#ifndef XAIDB_PERFBENCH_PROBES_H_
#define XAIDB_PERFBENCH_PROBES_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/thread_pool.h"
#include "data/binned.h"
#include "harness.h"
#include "model/gbdt.h"
#include "model/hist_learner.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A GradientBoostedTrees that times every PredictBatch call while
/// `log` is set. It stays a GradientBoostedTrees, so the explainer
/// factory's TreeSHAP cast accepts it, and its predictions are the wrapped
/// model's own.
class TimedGbdt : public xai::GradientBoostedTrees {
 public:
  explicit TimedGbdt(xai::GradientBoostedTrees base)
      : xai::GradientBoostedTrees(std::move(base)) {}

  std::vector<double> PredictBatch(const xai::Matrix& x) const override {
    SpanLog* log = log_.load(std::memory_order_acquire);
    if (log == nullptr) return xai::GradientBoostedTrees::PredictBatch(x);
    const int64_t t0 = NowNs();
    std::vector<double> out = xai::GradientBoostedTrees::PredictBatch(x);
    const int64_t t1 = NowNs();
    calls_.fetch_add(1, std::memory_order_relaxed);
    rows_.fetch_add(x.rows(), std::memory_order_relaxed);
    busy_ns_.fetch_add(static_cast<uint64_t>(t1 - t0),
                       std::memory_order_relaxed);
    log->Add(Span{"model.predict", t0, t1, -1, 0});
    return out;
  }

  /// Starts (non-null) or stops (null) recording. Counters reset on start.
  void Trace(SpanLog* log) {
    if (log != nullptr) {
      calls_ = 0;
      rows_ = 0;
      busy_ns_ = 0;
    }
    log_.store(log, std::memory_order_release);
  }
  uint64_t calls() const { return calls_.load(); }
  uint64_t rows() const { return rows_.load(); }
  uint64_t busy_ns() const { return busy_ns_.load(); }

 private:
  std::atomic<SpanLog*> log_{nullptr};
  mutable std::atomic<uint64_t> calls_{0};
  mutable std::atomic<uint64_t> rows_{0};
  mutable std::atomic<uint64_t> busy_ns_{0};
};

/// Median wall time, in microseconds, of one GlobalPool().ParallelFor call
/// over `chunks` trivial chunks, over `calls` calls.
inline double ParallelForProbeUs(size_t chunks, int calls) {
  std::vector<double> us;
  us.reserve(static_cast<size_t>(calls));
  std::vector<uint64_t> sink(chunks, 0);
  for (int c = 0; c < calls; ++c) {
    const int64_t t0 = NowNs();
    xai::GlobalPool().ParallelFor(0, chunks, 1,
                                  [&](size_t i) { sink[i] += i + 1; });
    us.push_back(static_cast<double>(NowNs() - t0) * 1e-3);
  }
  return Summarize(std::move(us)).p50;
}

/// Seconds one standalone BinnedDataset::Build over `x` takes.
inline double BinBuildProbeS(const xai::Matrix& x, int max_bins,
                             xai::BinnedDataset* out) {
  const int64_t t0 = NowNs();
  auto built = xai::BinnedDataset::Build(x, max_bins);
  const double s = static_cast<double>(NowNs() - t0) * 1e-9;
  if (built.ok()) *out = std::move(built).value();
  return built.ok() ? s : -1.0;
}

/// Milliseconds one direct FitRegressionTreeHist call takes on a prebuilt
/// BinnedDataset, fitting `targets` (the first boosting round's gradient).
inline double HistTreeProbeMs(const xai::BinnedDataset& binned,
                              const std::vector<double>& targets,
                              const xai::TreeConfig& config) {
  const int64_t t0 = NowNs();
  const xai::Tree tree = xai::FitRegressionTreeHist(binned, targets, config);
  const double ms = static_cast<double>(NowNs() - t0) * 1e-6;
  return tree.nodes.empty() ? -1.0 : ms;
}

}  // namespace perfbench

#endif  // XAIDB_PERFBENCH_PROBES_H_
