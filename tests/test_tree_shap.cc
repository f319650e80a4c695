#include "feature/tree_shap.h"

#include <cmath>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "feature/shapley.h"
#include "model/decision_tree.h"
#include "model/gbdt.h"
#include "tree_oracle.h"

namespace xai {
namespace {

TEST(TreeShap, EfficiencySingleTree) {
  Dataset ds = MakeGaussianDataset(400, {.seed = 5, .dims = 6, .rho = 0.3});
  auto tree = DecisionTree::Fit(ds, {.max_depth = 5, .min_samples_leaf = 5});
  ASSERT_TRUE(tree.ok());
  for (size_t i = 0; i < 20; ++i) {
    std::vector<double> x = ds.row(i);
    std::vector<double> phi(ds.d(), 0.0);
    FlatTreeShapValues(tree->flat(), 0, x.data(), &phi);
    double sum = 0.0;
    for (double v : phi) sum += v;
    EXPECT_NEAR(sum, tree->Predict(x) - tree->tree().ExpectedValue(), 1e-9)
        << "efficiency violated at row " << i;
  }
}

TEST(TreeShap, MatchesExactEnumerationSingleTree) {
  Dataset ds = MakeGaussianDataset(300, {.seed = 9, .dims = 8, .rho = 0.0});
  auto tree = DecisionTree::Fit(ds, {.max_depth = 4, .min_samples_leaf = 10});
  ASSERT_TRUE(tree.ok());
  for (size_t i = 0; i < 10; ++i) {
    std::vector<double> x = ds.row(i);
    std::vector<double> fast(ds.d(), 0.0);
    FlatTreeShapValues(tree->flat(), 0, x.data(), &fast);
    // The node-object oracle solves the same game.
    std::vector<double> node(ds.d(), 0.0);
    oracle::TreeShapValues(tree->tree(), x, &node);
    TreePathGame game(tree->flat(), 1.0, x);
    auto exact = ExactShapley(game);
    ASSERT_TRUE(exact.ok());
    for (size_t j = 0; j < ds.d(); ++j) {
      EXPECT_NEAR(fast[j], (*exact)[j], 1e-8)
          << "row " << i << " feature " << j;
      EXPECT_NEAR(node[j], (*exact)[j], 1e-8)
          << "row " << i << " feature " << j;
    }
  }
}

TEST(TreeShap, MatchesExactEnumerationGbdtEnsemble) {
  Dataset ds = MakeGaussianDataset(400, {.seed = 12, .dims = 6, .rho = 0.2});
  auto gbdt = GradientBoostedTrees::Fit(
      ds, {.num_rounds = 20, .learning_rate = 0.2,
           .tree = {.max_depth = 3, .min_samples_leaf = 5,
                    .max_features = 0}});
  ASSERT_TRUE(gbdt.ok());
  TreeShapExplainer explainer(*gbdt, ds.schema());
  for (size_t i = 0; i < 5; ++i) {
    std::vector<double> x = ds.row(i);
    auto fast = explainer.Explain(x);
    ASSERT_TRUE(fast.ok());
    TreePathGame game(gbdt->flat(), gbdt->learning_rate(), x);
    auto exact = ExactShapley(game);
    ASSERT_TRUE(exact.ok());
    for (size_t j = 0; j < ds.d(); ++j)
      EXPECT_NEAR(fast->values[j], (*exact)[j], 1e-8);
  }
}

TEST(TreeShap, ExplainerReportsMarginAndNames) {
  Dataset ds = MakeLoanDataset(500);
  auto gbdt = GradientBoostedTrees::Fit(ds);
  ASSERT_TRUE(gbdt.ok());
  TreeShapExplainer explainer(*gbdt, ds.schema());
  auto attr = explainer.Explain(ds.row(3));
  ASSERT_TRUE(attr.ok());
  EXPECT_EQ(attr->feature_names.size(), ds.d());
  EXPECT_EQ(attr->feature_names[1], "income");
  EXPECT_NEAR(attr->prediction, gbdt->PredictMargin(ds.row(3)), 1e-9);
  EXPECT_NEAR(attr->Reconstruction(), attr->prediction, 1e-7);
}

TEST(TreeShap, IrrelevantFeatureGetsZero) {
  // Feature d-1 is never split on if it carries no signal and the tree is
  // shallow; build a tree manually to make this deterministic.
  Tree tree;
  tree.nodes.resize(3);
  tree.nodes[0] = {0, 0.5, 1, 2, 0.0, 100.0};
  tree.nodes[1] = {-1, 0.0, -1, -1, 1.0, 60.0};
  tree.nodes[2] = {-1, 0.0, -1, -1, 5.0, 40.0};
  std::vector<double> phi(3, 0.0);
  const double x[] = {0.2, 9.9, -3.0};
  FlatTreeShapValues(FlatEnsemble::Compile(tree), 0, x, &phi);
  EXPECT_NEAR(phi[1], 0.0, 1e-12);
  EXPECT_NEAR(phi[2], 0.0, 1e-12);
  // Expected value = 0.6*1 + 0.4*5 = 2.6; f(x)=1 -> phi_0 = -1.6.
  EXPECT_NEAR(phi[0], 1.0 - 2.6, 1e-12);
}

TEST(InterventionalTreeShap, SingleReferenceEfficiency) {
  Dataset ds = MakeGaussianDataset(400, {.seed = 31, .dims = 6, .rho = 0.2});
  auto tree = DecisionTree::Fit(ds, {.max_depth = 5, .min_samples_leaf = 5});
  ASSERT_TRUE(tree.ok());
  for (size_t i = 0; i < 10; ++i) {
    const std::vector<double> x = ds.row(i);
    const std::vector<double> ref = ds.row(ds.n() - 1 - i);
    std::vector<double> phi(ds.d(), 0.0);
    InterventionalTreeShap(tree->flat(), 0, x, ref, &phi);
    double sum = 0.0;
    for (double v : phi) sum += v;
    EXPECT_NEAR(sum, tree->Predict(x) - tree->Predict(ref), 1e-10)
        << "row " << i;
  }
}

TEST(InterventionalTreeShap, MatchesExactCubeGameShapley) {
  // Against brute-force Shapley of v(S) = tree(x_S, ref_~S).
  Dataset ds = MakeGaussianDataset(300, {.seed = 33, .dims = 7});
  auto tree = DecisionTree::Fit(ds, {.max_depth = 5, .min_samples_leaf = 5});
  ASSERT_TRUE(tree.ok());
  for (size_t trial = 0; trial < 5; ++trial) {
    const std::vector<double> x = ds.row(trial);
    const std::vector<double> ref = ds.row(100 + trial);
    std::vector<double> fast(ds.d(), 0.0);
    InterventionalTreeShap(tree->flat(), 0, x, ref, &fast);
    LambdaGame game(ds.d(), [&](const std::vector<bool>& s) {
      std::vector<double> z(ds.d());
      for (size_t j = 0; j < ds.d(); ++j) z[j] = s[j] ? x[j] : ref[j];
      return oracle::Predict(tree->tree(), z);
    });
    auto exact = ExactShapley(game);
    ASSERT_TRUE(exact.ok());
    for (size_t j = 0; j < ds.d(); ++j)
      EXPECT_NEAR(fast[j], (*exact)[j], 1e-10)
          << "trial " << trial << " feature " << j;
  }
}

TEST(InterventionalTreeShap, EnsembleMatchesMarginalGameExactShapley) {
  // Averaged over a background, interventional TreeSHAP computes exactly
  // the Shapley values of MarginalFeatureGame — the quantity KernelSHAP
  // approximates by regression.
  Dataset ds = MakeGaussianDataset(500, {.seed = 35, .dims = 6, .rho = 0.4});
  auto gbdt = GradientBoostedTrees::Fit(ds, {.num_rounds = 15});
  ASSERT_TRUE(gbdt.ok());
  const std::vector<double> x = ds.row(1);
  const size_t kBackground = 30;
  std::vector<double> fast = InterventionalEnsembleShap(
      gbdt->flat(), gbdt->learning_rate(), ds.d(), x, ds.x(), kBackground);
  // Exact Shapley of the margin's marginal game with the same background.
  auto margin_model = MakeLambdaModel(ds.d(), [&](const std::vector<double>& v) {
    return gbdt->PredictMargin(v) - gbdt->base_score();
  });
  MarginalFeatureGame game(margin_model, ds.x(), x, kBackground);
  auto exact = ExactShapley(game);
  ASSERT_TRUE(exact.ok());
  for (size_t j = 0; j < ds.d(); ++j)
    EXPECT_NEAR(fast[j], (*exact)[j], 1e-9) << "feature " << j;
}

TEST(TreeShap, GlobalImportanceRanksSignalFeatures) {
  // Ground-truth weights 1, 1/2, 1/3, ... => feature 0 should dominate.
  Dataset ds = MakeGaussianDataset(800, {.seed = 21, .dims = 5, .rho = 0.0});
  auto gbdt = GradientBoostedTrees::Fit(ds, {.num_rounds = 40});
  ASSERT_TRUE(gbdt.ok());
  TreeShapExplainer explainer(*gbdt, ds.schema());
  std::vector<double> imp = GlobalMeanAbsShap(&explainer, ds, 100);
  EXPECT_GT(imp[0], imp[2]);
  EXPECT_GT(imp[0], imp[3]);
  EXPECT_GT(imp[0], imp[4]);
}

}  // namespace
}  // namespace xai
