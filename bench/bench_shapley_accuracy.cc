// E2 — TreeSHAP is *exact* for trees, while sampling approximations carry
// error that shrinks with budget (tutorial Section 2.1.2: approximations
// "lead to certain issues with the attributions provided").
//
// Reports max-abs error and Spearman rank correlation against exact
// enumeration of the tree conditional-expectation game, for TreeSHAP and
// for permutation sampling at several budgets.
#include <cmath>

#include "bench_util.h"
#include "data/synthetic.h"
#include "feature/shapley.h"
#include "feature/tree_shap.h"
#include "math/stats.h"
#include "model/gbdt.h"

using namespace xai;
using namespace xai::bench;

int main() {
  Banner("E2: bench_shapley_accuracy",
         "TreeSHAP reproduces exact Shapley values to machine precision; "
         "Monte-Carlo error decays ~1/sqrt(budget)");

  const size_t d = 10;
  Dataset ds = MakeGaussianDataset(800, {.seed = 3, .dims = d, .rho = 0.3});
  auto gbdt = GradientBoostedTrees::Fit(ds, {.num_rounds = 40});
  if (!gbdt.ok()) return 1;

  const int kInstances = 10;
  Row("%-24s %14s %12s", "method", "max_abs_err", "rank_corr");

  // Exact reference per instance.
  std::vector<std::vector<double>> exact(kInstances);
  for (int i = 0; i < kInstances; ++i) {
    TreePathGame game(gbdt->flat(), gbdt->learning_rate(),
                      ds.row(static_cast<size_t>(i)));
    auto phi = ExactShapley(game, 20);
    if (!phi.ok()) return 1;
    exact[i] = *phi;
  }

  auto evaluate = [&](const char* name,
                      const std::function<std::vector<double>(
                          const std::vector<double>&, int)>& method) {
    double max_err = 0.0;
    double corr = 0.0;
    for (int i = 0; i < kInstances; ++i) {
      std::vector<double> approx =
          method(ds.row(static_cast<size_t>(i)), i);
      for (size_t j = 0; j < d; ++j)
        max_err = std::max(max_err, std::fabs(approx[j] - exact[i][j]));
      corr += SpearmanCorrelation(approx, exact[i]) / kInstances;
    }
    Row("%-24s %14.3e %12.4f", name, max_err, corr);
  };

  TreeShapExplainer treeshap(*gbdt, ds.schema());
  evaluate("treeshap", [&](const std::vector<double>& x, int) {
    auto attr = treeshap.Explain(x);
    return attr.ok() ? attr->values : std::vector<double>(d, NAN);
  });
  for (int budget : {10, 50, 250, 1000}) {
    char name[64];
    std::snprintf(name, sizeof(name), "permutation(%d)", budget);
    evaluate(name, [&](const std::vector<double>& x, int i) {
      TreePathGame game(gbdt->flat(), gbdt->learning_rate(), x);
      Rng rng(100 + static_cast<uint64_t>(i));
      return PermutationShapley(game, budget, &rng);
    });
  }
  Row("# expected shape: treeshap error ~1e-12; permutation error drops "
      "with budget but never reaches it.");
  return 0;
}
