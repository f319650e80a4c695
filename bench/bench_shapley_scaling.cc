// E1 — "Computing Shapley values takes exponential time ... TreeSHAP
// introduces a polynomial-time algorithm" (tutorial Section 2.1.2).
//
// Sweeps the number of features d and times, per explained instance:
//   exact enumeration (2^d evals), permutation sampling, KernelSHAP,
//   TreeSHAP. Exact time should explode with d while TreeSHAP stays flat.
#include "bench_util.h"

#include "data/synthetic.h"
#include "feature/kernel_shap.h"
#include "feature/shapley.h"
#include "feature/tree_shap.h"
#include "model/gbdt.h"

using namespace xai;
using namespace xai::bench;

int main() {
  Banner("E1: bench_shapley_scaling",
         "exact Shapley is exponential in d; TreeSHAP is polynomial "
         "(stays flat); sampling methods sit in between");
  Row("%4s %12s %12s %12s %12s", "d", "exact_ms", "perm_ms", "kshap_ms",
      "treeshap_ms");

  for (size_t d : {4, 6, 8, 10, 12, 14, 16}) {
    Dataset ds = MakeGaussianDataset(600, {.seed = 42, .dims = d});
    auto gbdt = GradientBoostedTrees::Fit(ds, {.num_rounds = 30});
    if (!gbdt.ok()) return 1;
    const std::vector<double> x = ds.row(0);
    const int reps = 3;

    double exact_ms = -1.0;
    {
      TreePathGame game(gbdt->flat(), gbdt->learning_rate(), x);
      Timer t;
      for (int r = 0; r < reps; ++r) {
        auto phi = ExactShapley(game, 20);
        if (!phi.ok()) return 1;
      }
      exact_ms = t.ElapsedMs() / reps;
    }

    double perm_ms;
    {
      TreePathGame game(gbdt->flat(), gbdt->learning_rate(), x);
      Rng rng(7);
      Timer t;
      for (int r = 0; r < reps; ++r)
        PermutationShapley(game, 50, &rng);
      perm_ms = t.ElapsedMs() / reps;
    }

    double kshap_ms;
    {
      KernelShapOptions opts;
      opts.exact_up_to = 0;  // Always sample.
      opts.num_samples = 1024;
      opts.max_background = 20;
      KernelShapExplainer ks(*gbdt, ds, opts);
      Timer t;
      for (int r = 0; r < reps; ++r) {
        auto attr = ks.Explain(x);
        if (!attr.ok()) return 1;
      }
      kshap_ms = t.ElapsedMs() / reps;
    }

    double treeshap_ms;
    {
      TreeShapExplainer ts(*gbdt, ds.schema());
      Timer t;
      for (int r = 0; r < reps * 10; ++r) {
        auto attr = ts.Explain(x);
        if (!attr.ok()) return 1;
      }
      treeshap_ms = t.ElapsedMs() / (reps * 10);
    }

    Row("%4zu %12.2f %12.2f %12.2f %12.3f", d, exact_ms, perm_ms, kshap_ms,
        treeshap_ms);
  }
  Row("# expected shape: exact_ms grows ~2^d; treeshap_ms nearly constant.");
  ReportMetrics();
  return 0;
}
