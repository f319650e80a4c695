// Training-throughput benchmark for the binned histogram pipeline: fits the
// same GBDT on ~1M synthetic rows with the exact sort-per-node learner and
// with the quantized BinnedDataset + histogram learner, and reports the fit
// times side by side.
//
//   exact   per-node, per-feature (value, row) sort — the reference oracle
//   hist    one quantization pass (BinMapper, <=256 bins -> u8 codes), then
//           per-node histograms with parent-minus-sibling subtraction; no
//           sorting after the bin build
//
// The hist fit and a standalone bin build are each repeated kReps times at
// 1 and at 4 library threads. Each thread count reports the median and
// range of `bin_build_ms` and `hist_fit_ms`, and `fit_minus_bin_ms` (median
// fit minus median bin build: histogram accumulation, split scan,
// partition and margin update). The 1- and 4-thread ensembles are compared
// node by node: any bitwise difference fails the bench (the fixed-chunk
// ParallelFor determinism contract extends to training).
//
// Writes machine-readable results to BENCH_train.json (or argv[1]): the
// environment (CPU, nproc, build type, compiler, git sha), the per-thread
// phases, the exact/hist speedup, train AUC for both ensembles (quantized
// splits must not cost accuracy), and peak RSS.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "data/binned.h"
#include "data/synthetic.h"
#include "model/gbdt.h"
#include "model/metrics.h"
#include "model/tree.h"

using namespace xai;
using namespace xai::bench;

namespace {

constexpr size_t kRows = 1'000'000;
constexpr size_t kDims = 16;
constexpr int kRounds = 5;
constexpr int kMaxDepth = 5;
constexpr int kReps = 3;

GbdtOptions Options(TrainMethod method) {
  GbdtOptions opts;
  opts.num_rounds = kRounds;
  opts.tree = {.max_depth = kMaxDepth, .min_samples_leaf = 20,
               .max_features = 0};
  opts.tree.train.method = method;
  return opts;
}

bool SameEnsemble(const GradientBoostedTrees& a,
                  const GradientBoostedTrees& b) {
  if (a.trees().size() != b.trees().size()) return false;
  for (size_t t = 0; t < a.trees().size(); ++t) {
    const Tree& ta = a.trees()[t];
    const Tree& tb = b.trees()[t];
    if (ta.nodes.size() != tb.nodes.size()) return false;
    for (size_t i = 0; i < ta.nodes.size(); ++i) {
      const TreeNode& na = ta.nodes[i];
      const TreeNode& nb = tb.nodes[i];
      if (na.feature != nb.feature || na.threshold != nb.threshold ||
          na.value != nb.value || na.cover != nb.cover ||
          na.left != nb.left || na.right != nb.right)
        return false;
    }
  }
  return true;
}

/// Median, min and max of a few repeated timings.
struct Spread {
  double median = 0.0, min = 0.0, max = 0.0;
};

Spread SpreadOf(std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  return {ms[ms.size() / 2], ms.front(), ms.back()};
}

std::string SpreadJson(const Spread& s) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{\"median\": %.1f, \"min\": %.1f, \"max\": %.1f}", s.median,
                s.min, s.max);
  return buf;
}

/// One thread count's phases, and the last hist ensemble it fitted.
struct Phases {
  size_t threads = 0;
  Spread bin_build_ms;
  Spread hist_fit_ms;
  std::optional<GradientBoostedTrees> model;
  double FitMinusBinMs() const {
    return hist_fit_ms.median - bin_build_ms.median;
  }
};

/// Times kReps standalone bin builds and kReps hist fits of `ds` at
/// `threads` library threads. Returns nullopt when a build or fit fails.
std::optional<Phases> MeasurePhases(const Dataset& ds, size_t threads) {
  SetGlobalThreads(threads);
  Phases p;
  p.threads = threads;
  std::vector<double> bin_ms, fit_ms;
  for (int r = 0; r < kReps; ++r) {
    Timer bin_timer;
    auto binned = BinnedDataset::Build(ds.x(), 256);
    bin_ms.push_back(bin_timer.ElapsedMs());
    if (!binned.ok()) {
      std::fprintf(stderr, "FAIL: BinnedDataset::Build: %s\n",
                   binned.status().message().c_str());
      return std::nullopt;
    }
  }
  for (int r = 0; r < kReps; ++r) {
    Timer fit_timer;
    auto fit = GradientBoostedTrees::Fit(ds, Options(TrainMethod::kHist));
    fit_ms.push_back(fit_timer.ElapsedMs());
    if (!fit.ok()) return std::nullopt;
    p.model = std::move(*fit);
  }
  SetGlobalThreads(0);
  p.bin_build_ms = SpreadOf(bin_ms);
  p.hist_fit_ms = SpreadOf(fit_ms);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_path = TraceJsonArg(argc, argv);
  const std::string json_path =
      PositionalArg(argc, argv, 0, "BENCH_train.json");
  Banner("E17: bench_train",
         "quantize-once histogram training beats the exact sort-per-node "
         "learner by >=5x on a 1M-row GBDT fit (>=4 threads), stays "
         "bit-identical across thread counts, and matches exact-mode train "
         "AUC within noise");

  const std::string env = EnvJson();
  Row("# generating %zu x %zu synthetic rows...", kRows, kDims);
  const Dataset ds =
      MakeGaussianDataset(kRows, {.seed = 19, .dims = kDims, .rho = 0.25});

  // Phases at 1 and 4 library threads. The hist fit builds its own
  // BinnedDataset, so hist_fit_ms includes the bin build: the speedup
  // below is end to end.
  std::vector<Phases> phases;
  for (size_t threads : {1u, 4u}) {
    Row("# hist at %zu thread(s): %d bin builds, %d fits...", threads, kReps,
        kReps);
    auto p = MeasurePhases(ds, threads);
    if (!p) return 1;
    phases.push_back(std::move(*p));
  }
  const Phases& t1 = phases[0];
  const Phases& t4 = phases[1];

  Row("# fitting exact (%d rounds, depth %d)...", kRounds, kMaxDepth);
  Timer exact_timer;
  auto exact = GradientBoostedTrees::Fit(ds, Options(TrainMethod::kExact));
  const double exact_ms = exact_timer.ElapsedMs();
  if (!exact.ok()) return 1;

  const double hist_ms = t4.hist_fit_ms.median;
  const double speedup = hist_ms > 0.0 ? exact_ms / hist_ms : 0.0;
  const bool thread_identical = SameEnsemble(*t1.model, *t4.model);
  const double auc_exact = EvaluateAuc(*exact, ds);
  const double auc_hist = EvaluateAuc(*t4.model, ds);

  Row("%-8s %8s %14s %14s %16s", "method", "threads", "bin_build_ms",
      "fit_ms", "fit_minus_bin_ms");
  for (const Phases& p : phases)
    Row("%-8s %8zu %14.0f %14.0f %16.0f", "hist", p.threads,
        p.bin_build_ms.median, p.hist_fit_ms.median, p.FitMinusBinMs());
  Row("%-8s %8zu %14s %14.0f %16s", "exact", GlobalThreadCount(), "-",
      exact_ms, "-");
  Row("# exact/hist speedup at 4 threads: %.2fx; train auc exact %.4f, "
      "hist %.4f", speedup, auc_exact, auc_hist);
  Row("# hist thread-count bit-identity (1 vs 4 threads): %s",
      thread_identical ? "PASS" : "FAIL");
  Row("# expected shape: speedup >= 5x at 4 threads (the binned-pipeline "
      "acceptance bar; the algorithmic win alone clears it on one core), "
      "|auc_hist - auc_exact| small.");

  if (!thread_identical) {
    std::fprintf(stderr,
                 "FAIL: hist ensembles differ across thread counts\n");
    return 1;
  }

  std::FILE* f = std::fopen(json_path.c_str(), "w");
  if (f) {
    std::fprintf(f, "{\n  \"bench\": \"bench_train\",\n");
    std::fprintf(f, "  \"env\": %s,\n", env.c_str());
    std::fprintf(f, "  \"rows\": %zu,\n  \"features\": %zu,\n", kRows, kDims);
    std::fprintf(f, "  \"rounds\": %d,\n  \"max_depth\": %d,\n", kRounds,
                 kMaxDepth);
    std::fprintf(f, "  \"max_bins\": 256,\n  \"reps\": %d,\n", kReps);
    std::fprintf(f, "  \"hist\": [\n");
    for (size_t i = 0; i < phases.size(); ++i) {
      const Phases& p = phases[i];
      std::fprintf(f,
                   "    {\"threads\": %zu, \"bin_build_ms\": %s, "
                   "\"hist_fit_ms\": %s, \"fit_minus_bin_ms\": %.1f}%s\n",
                   p.threads, SpreadJson(p.bin_build_ms).c_str(),
                   SpreadJson(p.hist_fit_ms).c_str(), p.FitMinusBinMs(),
                   i + 1 < phases.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"exact_threads\": %zu,\n", GlobalThreadCount());
    std::fprintf(f, "  \"exact_fit_ms\": %.1f,\n", exact_ms);
    std::fprintf(f, "  \"speedup_at_4_threads\": %.2f,\n", speedup);
    std::fprintf(f, "  \"auc_exact\": %.4f,\n  \"auc_hist\": %.4f,\n",
                 auc_exact, auc_hist);
    std::fprintf(f, "  \"hist_thread_identical\": %s,\n",
                 thread_identical ? "true" : "false");
    std::fprintf(f, "  \"resources\": %s\n}\n", ResourcesJson().c_str());
    std::fclose(f);
    std::printf("# results written to %s\n", json_path.c_str());
  } else {
    std::fprintf(stderr, "warning: cannot write %s\n", json_path.c_str());
  }

  ReportMetrics();
  MaybeWriteTrace(trace_path);
  return 0;
}
