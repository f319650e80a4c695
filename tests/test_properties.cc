// Property-based sweeps (TEST_P): invariants that must hold across broad
// parameter grids, complementing the example-based tests elsewhere.
#include <gtest/gtest.h>

#include <cmath>

#include "core/game.h"
#include "data/csv.h"
#include "data/synthetic.h"
#include "db/incremental.h"
#include "feature/kernel_shap.h"
#include "feature/shapley.h"
#include "feature/tree_shap.h"
#include "math/gaussian.h"
#include "model/decision_tree.h"
#include "model/gbdt.h"
#include "model/linear_regression.h"
#include "model/logistic_regression.h"
#include "tree_oracle.h"

namespace xai {
namespace {

// ---------------- TreeSHAP invariants across tree shapes ----------------

struct TreeShapParams {
  int max_depth;
  double rho;
  size_t dims;
  uint64_t seed;
};

class TreeShapProperty : public ::testing::TestWithParam<TreeShapParams> {};

TEST_P(TreeShapProperty, EfficiencyAndExactness) {
  const TreeShapParams p = GetParam();
  Dataset ds = MakeGaussianDataset(
      400, {.seed = p.seed, .dims = p.dims, .rho = p.rho});
  auto gbdt = GradientBoostedTrees::Fit(
      ds, {.num_rounds = 10,
           .tree = {.max_depth = p.max_depth, .min_samples_leaf = 5,
                    .max_features = 0}});
  ASSERT_TRUE(gbdt.ok());
  TreeShapExplainer explainer(*gbdt, ds.schema());
  for (size_t i = 0; i < 3; ++i) {
    const std::vector<double> x = ds.row(i);
    auto attr = explainer.Explain(x);
    ASSERT_TRUE(attr.ok());
    const std::vector<double>& phi = attr->values;
    // Bit-identical to the node-object oracle.
    EXPECT_EQ(phi, oracle::EnsembleTreeShap(gbdt->trees(),
                                            gbdt->learning_rate(), p.dims, x));
    // Efficiency against the ensemble's own margin/base.
    double base = gbdt->base_score();
    for (const Tree& t : gbdt->trees())
      base += gbdt->learning_rate() * t.ExpectedValue();
    double sum = base;
    for (double v : phi) sum += v;
    EXPECT_NEAR(sum, gbdt->PredictMargin(x), 1e-8);
    // Exactness against subset enumeration.
    TreePathGame game(gbdt->flat(), gbdt->learning_rate(), x);
    auto exact = ExactShapley(game);
    ASSERT_TRUE(exact.ok());
    for (size_t j = 0; j < p.dims; ++j)
      EXPECT_NEAR(phi[j], (*exact)[j], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    DepthRhoSweep, TreeShapProperty,
    ::testing::Values(TreeShapParams{1, 0.0, 4, 1},
                      TreeShapParams{2, 0.0, 6, 2},
                      TreeShapParams{3, 0.5, 6, 3},
                      TreeShapParams{4, -0.4, 8, 4},
                      TreeShapParams{5, 0.7, 5, 5},
                      TreeShapParams{6, 0.2, 7, 6},
                      TreeShapParams{8, 0.0, 4, 7}));

TEST_P(TreeShapProperty, InterventionalMatchesCubeGameExactly) {
  const TreeShapParams p = GetParam();
  Dataset ds = MakeGaussianDataset(
      300, {.seed = p.seed + 100, .dims = p.dims, .rho = p.rho});
  auto tree = DecisionTree::Fit(
      ds, {.max_depth = p.max_depth, .min_samples_leaf = 5});
  ASSERT_TRUE(tree.ok());
  const std::vector<double> x = ds.row(0);
  const std::vector<double> ref = ds.row(ds.n() - 1);
  std::vector<double> fast(p.dims, 0.0);
  InterventionalTreeShap(tree->flat(), 0, x, ref, &fast);
  LambdaGame game(p.dims, [&](const std::vector<bool>& s) {
    std::vector<double> z(p.dims);
    for (size_t j = 0; j < p.dims; ++j) z[j] = s[j] ? x[j] : ref[j];
    return oracle::Predict(tree->tree(), z);
  });
  auto exact = ExactShapley(game);
  ASSERT_TRUE(exact.ok());
  for (size_t j = 0; j < p.dims; ++j)
    EXPECT_NEAR(fast[j], (*exact)[j], 1e-10);
}

// ---------------- KernelSHAP == exact Shapley across d ----------------

class KernelShapProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(KernelShapProperty, ExactEnumerationModeIsExact) {
  const size_t d = GetParam();
  Dataset ds = MakeGaussianDataset(200, {.seed = 10 + d, .dims = d});
  auto model = LogisticRegression::Fit(ds);
  ASSERT_TRUE(model.ok());
  const std::vector<double> x = ds.row(0);
  KernelShapOptions opts;
  opts.max_background = 25;
  KernelShapExplainer ks(*model, ds, opts);
  auto attr = ks.Explain(x);
  ASSERT_TRUE(attr.ok());
  MarginalFeatureGame game(*model, ds.x(), x, 25);
  auto exact = ExactShapley(game);
  ASSERT_TRUE(exact.ok());
  for (size_t j = 0; j < d; ++j)
    EXPECT_NEAR(attr->values[j], (*exact)[j], 1e-6) << "d=" << d;
}

INSTANTIATE_TEST_SUITE_P(DimsSweep, KernelShapProperty,
                         ::testing::Values(2, 3, 4, 5, 6, 8, 10, 12));

// ---------------- Shapley axioms on random games ----------------

class ShapleyAxiomsProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShapleyAxiomsProperty, EfficiencyDummyAdditivity) {
  Rng rng(GetParam());
  const size_t n = 3 + GetParam() % 4;
  std::vector<double> table_a(1u << n);
  std::vector<double> table_b(1u << n);
  for (double& v : table_a) v = rng.Uniform(-1, 1);
  for (double& v : table_b) v = rng.Uniform(-1, 1);
  auto make_game = [n](const std::vector<double>& table) {
    return LambdaGame(n, [&table, n](const std::vector<bool>& s) {
      uint32_t m = 0;
      for (size_t i = 0; i < n; ++i)
        if (s[i]) m |= 1u << i;
      return table[m];
    });
  };
  LambdaGame ga = make_game(table_a);
  LambdaGame gb = make_game(table_b);
  auto phi_a = ExactShapley(ga);
  auto phi_b = ExactShapley(gb);
  ASSERT_TRUE(phi_a.ok() && phi_b.ok());

  // Efficiency.
  double sum = 0.0;
  for (double v : *phi_a) sum += v;
  EXPECT_NEAR(sum, table_a[(1u << n) - 1] - table_a[0], 1e-10);

  // Additivity: phi(a + b) = phi(a) + phi(b).
  LambdaGame gsum(n, [&](const std::vector<bool>& s) {
    return ga.Value(s) + gb.Value(s);
  });
  auto phi_sum = ExactShapley(gsum);
  ASSERT_TRUE(phi_sum.ok());
  for (size_t i = 0; i < n; ++i)
    EXPECT_NEAR((*phi_sum)[i], (*phi_a)[i] + (*phi_b)[i], 1e-10);

  // Dummy: append a player that never changes the value.
  LambdaGame gdummy(n + 1, [&](const std::vector<bool>& s) {
    std::vector<bool> inner(s.begin(), s.begin() + static_cast<long>(n));
    return ga.Value(inner);
  });
  auto phi_dummy = ExactShapley(gdummy);
  ASSERT_TRUE(phi_dummy.ok());
  EXPECT_NEAR((*phi_dummy)[n], 0.0, 1e-10);
  for (size_t i = 0; i < n; ++i)
    EXPECT_NEAR((*phi_dummy)[i], (*phi_a)[i], 1e-10);
}

INSTANTIATE_TEST_SUITE_P(SeedSweep, ShapleyAxiomsProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------- Incremental maintenance exactness ----------------

struct IncrementalParams {
  size_t n;
  size_t d;
  size_t k;
};

class IncrementalProperty
    : public ::testing::TestWithParam<IncrementalParams> {};

TEST_P(IncrementalProperty, DowndateEqualsRetrain) {
  const IncrementalParams p = GetParam();
  std::vector<double> w;
  Dataset ds = MakeLinearRegressionDataset(p.n, p.d, 1000 + p.n, &w);
  auto inc = IncrementalLinearRegression::Fit(ds, {.lambda = 1e-5});
  ASSERT_TRUE(inc.ok());
  std::vector<size_t> removed;
  for (size_t i = 0; i < p.k; ++i) removed.push_back(i * 3);
  for (size_t i : removed)
    ASSERT_TRUE(inc->RemoveRow(ds.row(i), ds.y()[i]).ok());
  auto full = LinearRegression::Fit(ds.RemoveRows(removed), {.lambda = 1e-5});
  ASSERT_TRUE(full.ok());
  for (size_t j = 0; j < p.d; ++j)
    EXPECT_NEAR(inc->Theta()[j], full->weights()[j], 1e-6)
        << "n=" << p.n << " d=" << p.d << " k=" << p.k;
}

INSTANTIATE_TEST_SUITE_P(
    SizeSweep, IncrementalProperty,
    ::testing::Values(IncrementalParams{50, 2, 1},
                      IncrementalParams{100, 4, 5},
                      IncrementalParams{200, 8, 20},
                      IncrementalParams{400, 3, 50},
                      IncrementalParams{300, 6, 99}));

// ---------------- Gaussian conditioning consistency ----------------

class GaussianConditionProperty : public ::testing::TestWithParam<size_t> {};

TEST_P(GaussianConditionProperty, ConditionalMeanMatchesRegression) {
  const size_t d = GetParam();
  Dataset ds = MakeGaussianDataset(
      5000, {.seed = 77 + d, .dims = d, .rho = 0.6, .classification = false});
  auto g = MultivariateGaussian::Fit(ds.x());
  ASSERT_TRUE(g.ok());
  // Condition the last variable on the first d-1: the conditional mean
  // must match the linear regression of col d-1 on the others (Gaussian
  // conditional expectation IS the least-squares predictor).
  std::vector<size_t> given(d - 1);
  for (size_t j = 0; j + 1 < d; ++j) given[j] = j;
  std::vector<size_t> others(d - 1);
  for (size_t j = 0; j + 1 < d; ++j) others[j] = j;
  Matrix x_others = ds.x().SelectCols(others);
  std::vector<double> y_last = ds.x().Col(d - 1);
  auto reg = LinearRegression::Fit(x_others, y_last, {.lambda = 1e-9});
  ASSERT_TRUE(reg.ok());
  for (size_t trial = 0; trial < 5; ++trial) {
    std::vector<double> values(d - 1);
    for (size_t j = 0; j + 1 < d; ++j) values[j] = ds.x()(trial, j);
    auto cond = g->Condition(given, values);
    ASSERT_TRUE(cond.ok());
    EXPECT_NEAR(cond->mean()[0], reg->Predict(values), 0.02);
  }
}

INSTANTIATE_TEST_SUITE_P(DimsSweep, GaussianConditionProperty,
                         ::testing::Values(2, 3, 4, 6, 8));

// ---------------- CSV round trips over all generators ----------------

class CsvRoundTripProperty : public ::testing::TestWithParam<int> {};

TEST_P(CsvRoundTripProperty, LosslessForAllGenerators) {
  Dataset ds;
  switch (GetParam()) {
    case 0: ds = MakeLoanDataset(80); break;
    case 1: ds = MakeCreditDataset(80); break;
    case 2: ds = MakeHiringDataset(80); break;
    default: ds = MakeGaussianDataset(80, {.seed = 4, .dims = 5}); break;
  }
  const std::string path =
      "/tmp/xai_prop_roundtrip_" + std::to_string(GetParam()) + ".csv";
  ASSERT_TRUE(WriteCsv(ds, path).ok());
  auto back = ReadCsv(path);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->n(), ds.n());
  ASSERT_EQ(back->d(), ds.d());
  for (size_t i = 0; i < ds.n(); ++i) {
    for (size_t j = 0; j < ds.d(); ++j) {
      if (ds.schema().feature(j).is_numeric()) {
        EXPECT_NEAR(back->x()(i, j), ds.x()(i, j), 1e-6);
      } else {
        // Codes are assigned by first appearance on read; the *names*
        // must round-trip exactly.
        EXPECT_EQ(back->schema().FormatValue(j, back->x()(i, j)),
                  ds.schema().FormatValue(j, ds.x()(i, j)));
      }
    }
    EXPECT_DOUBLE_EQ(back->y()[i], ds.y()[i]);
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(GeneratorSweep, CsvRoundTripProperty,
                         ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace xai
