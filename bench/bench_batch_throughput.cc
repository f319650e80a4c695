// Throughput benchmark for the batched evaluation pipeline and the
// compiled flat ensemble runtime (flat_tree.h).
//
// Measures model evaluations/second over a fixed row set:
//   scalar            per-row Matrix::Row copy + Model::Predict — the
//                     pre-batching pipeline idiom
//   batched           one Model::PredictBatch call over the whole Matrix —
//                     the compiled SoA FlatEnsemble path for tree models
//   batched+parallel  fixed-size row chunks dispatched through the global
//                     ThreadPool (XAIDB_THREADS), one PredictBatch each
//
// Covered models: a deep GBDT ensemble, a random forest and logistic
// regression (single GEMV). Every batched output is checked bit-identical
// to scalar before any rate is reported. The node-object reference the
// flat runtime is tested against lives in tests/tree_oracle.h.
//
// Writes machine-readable results to BENCH_batch.json (or argv[1]).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "math/matrix.h"
#include "model/decision_tree.h"
#include "model/gbdt.h"
#include "model/logistic_regression.h"

using namespace xai;
using namespace xai::bench;

namespace {

struct ModeResult {
  double ms = 0.0;
  double evals_per_sec = 0.0;
};

struct ModelResult {
  std::string name;
  ModeResult scalar, batched, parallel;
  double max_abs_diff = 0.0;  // All modes vs scalar, must be exactly 0.
};

ModeResult Rate(double total_ms, size_t rows, int reps) {
  ModeResult r;
  r.ms = total_ms / reps;
  r.evals_per_sec =
      r.ms > 0.0 ? 1e3 * static_cast<double>(rows) / r.ms : 0.0;
  return r;
}

/// Copies rows [begin, end) into their own Matrix; rows are contiguous in
/// the row-major buffer so this is one memcpy-equivalent.
Matrix RowBlock(const Matrix& x, size_t begin, size_t end) {
  const double* src = x.RowPtr(begin);
  return Matrix::FromRows(
      end - begin, x.cols(),
      std::vector<double>(src, src + (end - begin) * x.cols()));
}

ModelResult BenchModel(const std::string& name, const Model& model,
                       const Matrix& x, int reps) {
  const size_t n = x.rows();
  ModelResult out;
  out.name = name;

  std::vector<double> scalar_pred(n);
  {
    Timer t;
    for (int r = 0; r < reps; ++r)
      for (size_t i = 0; i < n; ++i) {
        const std::vector<double> row = x.Row(i);
        scalar_pred[i] = model.Predict(row);
      }
    out.scalar = Rate(t.ElapsedMs(), n, reps);
  }

  std::vector<double> batched_pred;
  {
    Timer t;
    for (int r = 0; r < reps; ++r) batched_pred = model.PredictBatch(x);
    out.batched = Rate(t.ElapsedMs(), n, reps);
  }

  constexpr size_t kRowChunk = 512;
  std::vector<double> parallel_pred(n);
  {
    const size_t num_chunks = (n + kRowChunk - 1) / kRowChunk;
    Timer t;
    for (int r = 0; r < reps; ++r) {
      GlobalPool().ParallelFor(0, num_chunks, 1, [&](size_t c) {
        const size_t begin = c * kRowChunk;
        const size_t end = std::min(begin + kRowChunk, n);
        const std::vector<double> chunk =
            model.PredictBatch(RowBlock(x, begin, end));
        std::copy(chunk.begin(), chunk.end(), parallel_pred.begin() + begin);
      });
    }
    out.parallel = Rate(t.ElapsedMs(), n, reps);
  }

  for (size_t i = 0; i < n; ++i) {
    out.max_abs_diff =
        std::max(out.max_abs_diff, std::abs(scalar_pred[i] - batched_pred[i]));
    out.max_abs_diff =
        std::max(out.max_abs_diff, std::abs(scalar_pred[i] - parallel_pred[i]));
  }
  return out;
}

void WriteJson(const char* path, size_t rows, size_t threads,
               const std::vector<ModelResult>& results) {
  std::FILE* f = std::fopen(path, "w");
  if (!f) {
    std::fprintf(stderr, "warning: cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"bench_batch_throughput\",\n");
  std::fprintf(f, "  \"rows\": %zu,\n  \"threads\": %zu,\n", rows, threads);
  // Tracing state is part of the record: the flight-recorder guard on
  // this hot path (ParallelFor) must cost ~nothing when off, and this
  // bench is the evidence — comparable runs must both be tracing-off.
  std::fprintf(f, "  \"tracing\": %s,\n",
               obs::TraceEnabled() ? "true" : "false");
  std::fprintf(f, "  \"models\": [\n");
  for (size_t i = 0; i < results.size(); ++i) {
    const ModelResult& m = results[i];
    std::fprintf(f, "    {\"name\": \"%s\",\n", m.name.c_str());
    std::fprintf(f, "     \"scalar_evals_per_sec\": %.0f,\n",
                 m.scalar.evals_per_sec);
    std::fprintf(f, "     \"batched_evals_per_sec\": %.0f,\n",
                 m.batched.evals_per_sec);
    std::fprintf(f, "     \"parallel_evals_per_sec\": %.0f,\n",
                 m.parallel.evals_per_sec);
    std::fprintf(f, "     \"batched_speedup\": %.2f,\n",
                 m.batched.evals_per_sec / m.scalar.evals_per_sec);
    std::fprintf(f, "     \"parallel_speedup\": %.2f,\n",
                 m.parallel.evals_per_sec / m.scalar.evals_per_sec);
    std::fprintf(f, "     \"max_abs_diff\": %g}%s\n", m.max_abs_diff,
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"resources\": %s\n}\n",
               bench::ResourcesJson().c_str());
  std::fclose(f);
  std::printf("# results written to %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string trace_path = TraceJsonArg(argc, argv);
  const std::string json_path =
      PositionalArg(argc, argv, 0, "BENCH_batch.json");
  Banner("E16: bench_batch_throughput",
         "compiled flat SoA ensembles batch at >=2x the pre-flat pipeline "
         "baseline of 23,243 GBDT evals/sec; chunked parallel dispatch adds "
         "throughput with XAIDB_THREADS > 1 and every mode stays "
         "bit-identical to scalar");

  // Deep ensemble: ~1500 trees x depth 8 (tens of MB of nodes) puts the
  // ensemble well past the last-level cache, so row-outer scalar traversal
  // thrashes while tree-outer batching keeps each tree hot across the
  // whole row block, and the flat SoA layout + interleaved row cursors
  // add an integer factor on top.
  Dataset ds = MakeLoanDataset(8000);
  auto gbdt = GradientBoostedTrees::Fit(
      ds, {.num_rounds = 1500,
           .tree = {.max_depth = 8, .min_samples_leaf = 2, .max_features = 0}});
  if (!gbdt.ok()) return 1;
  auto forest = RandomForest::Fit(
      ds, {.num_trees = 400, .tree = {.max_depth = 10, .min_samples_leaf = 2}});
  if (!forest.ok()) return 1;
  auto logistic = LogisticRegression::Fit(ds, {.lambda = 1e-3});
  if (!logistic.ok()) return 1;

  std::vector<ModelResult> results;
  results.push_back(BenchModel("gbdt", *gbdt, ds.x(), 3));
  results.push_back(BenchModel("forest", *forest, ds.x(), 3));
  results.push_back(BenchModel("logistic", *logistic, ds.x(), 20));

  Row("%-10s %12s %12s %12s %8s", "model", "scalar_e/s", "flat_e/s",
      "parallel_e/s", "par_x");
  for (const ModelResult& m : results) {
    Row("%-10s %12.0f %12.0f %12.0f %7.2fx", m.name.c_str(),
        m.scalar.evals_per_sec, m.batched.evals_per_sec,
        m.parallel.evals_per_sec,
        m.parallel.evals_per_sec / m.scalar.evals_per_sec);
    if (m.max_abs_diff != 0.0) {
      std::fprintf(stderr, "FAIL: %s batched output differs from scalar "
                           "(max abs diff %g)\n",
                   m.name.c_str(), m.max_abs_diff);
      return 1;
    }
  }
  Row("# expected shape: gbdt flat_e/s >= 2x the pre-flat 23,243 e/s "
      "baseline (the flat-runtime acceptance bar); logistic batched is one "
      "GEMV; par_x tracks XAIDB_THREADS (1 on a single-core runner).");

  Row("# tracing %s during this run (guard overhead when off is the "
      "acceptance bar: <2%% vs a tracing-off baseline).",
      obs::TraceEnabled() ? "ON" : "off");

  WriteJson(json_path.c_str(), ds.n(), GlobalThreadCount(), results);
  ReportMetrics();
  MaybeWriteTrace(trace_path);
  return 0;
}
