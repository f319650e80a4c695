// Edge cases and error paths across the public API: the failure-injection
// counterpart of the happy-path suites.
#include <gtest/gtest.h>

#include <cmath>

#include "cf/dice.h"
#include "cf/geco.h"
#include "core/game.h"
#include "data/synthetic.h"
#include "feature/kernel_shap.h"
#include "feature/shapley.h"
#include "feature/tree_shap.h"
#include "model/decision_tree.h"
#include "model/gbdt.h"
#include "model/knn.h"
#include "model/logistic_regression.h"
#include "tree_oracle.h"

namespace xai {
namespace {

TEST(EdgeCases, KernelShapSingleFeature) {
  // d = 1: no proper coalitions exist; phi_0 must be f(x) - base exactly.
  Dataset ds = MakeGaussianDataset(100, {.seed = 2, .dims = 1});
  auto model = LogisticRegression::Fit(ds);
  ASSERT_TRUE(model.ok());
  KernelShapExplainer ks(*model, ds, {.max_background = 20});
  auto attr = ks.Explain(ds.row(0));
  ASSERT_TRUE(attr.ok());
  ASSERT_EQ(attr->values.size(), 1u);
  EXPECT_NEAR(attr->values[0], attr->prediction - attr->base_value, 1e-9);
}

TEST(EdgeCases, ExactShapleySinglePlayerAndEmpty) {
  LambdaGame one(1, [](const std::vector<bool>& s) {
    return s[0] ? 7.0 : 2.0;
  });
  auto phi = ExactShapley(one);
  ASSERT_TRUE(phi.ok());
  EXPECT_DOUBLE_EQ((*phi)[0], 5.0);
  LambdaGame zero(0, [](const std::vector<bool>&) { return 0.0; });
  auto empty = ExactShapley(zero);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(EdgeCases, TreeShapStumpAndSingleLeaf) {
  // Single-leaf "tree" (no splits): all attributions zero.
  Tree leaf_only;
  leaf_only.nodes.push_back({-1, 0.0, -1, -1, 3.5, 10.0});
  const FlatEnsemble flat = FlatEnsemble::Compile(leaf_only);
  const std::vector<double> x = {1, 2, 3, 4};
  std::vector<double> phi(4, 0.0);
  FlatTreeShapValues(flat, 0, x.data(), &phi);
  for (double v : phi) EXPECT_DOUBLE_EQ(v, 0.0);
  std::vector<double> node_phi(4, 0.0);
  oracle::TreeShapValues(leaf_only, x, &node_phi);
  EXPECT_EQ(phi, node_phi);
  // Interventional variant likewise.
  std::vector<double> phi2(4, 0.0);
  InterventionalTreeShap(flat, 0, x, {0, 0, 0, 0}, &phi2);
  for (double v : phi2) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(EdgeCases, InterventionalTreeShapIdenticalReference) {
  // x == reference: every phi must be exactly zero (no divergent paths).
  Dataset ds = MakeGaussianDataset(200, {.seed = 4, .dims = 5});
  auto gbdt = GradientBoostedTrees::Fit(ds, {.num_rounds = 10});
  ASSERT_TRUE(gbdt.ok());
  const std::vector<double> x = ds.row(0);
  std::vector<double> phi(5, 0.0);
  for (size_t t = 0; t < gbdt->flat().num_trees(); ++t)
    InterventionalTreeShap(gbdt->flat(), t, x, x, &phi);
  for (double v : phi) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(EdgeCases, DiceUnreachableClassFails) {
  // A constant model never flips: Dice must report NotFound, not hang.
  Dataset ds = MakeLoanDataset(200);
  auto constant = MakeLambdaModel(ds.d(), [](const std::vector<double>&) {
    return 0.1;
  });
  FeatureSpace space = FeatureSpace::FromDataset(ds);
  DiceOptions opts;
  opts.num_candidates = 200;
  auto cfs = DiceCounterfactuals(constant, space, ds.row(0), 1, opts);
  EXPECT_FALSE(cfs.ok());
  EXPECT_EQ(cfs.status().code(), StatusCode::kNotFound);
}

TEST(EdgeCases, GecoFullyConstrainedFails) {
  // Every feature frozen: no real counterfactual can exist — even for an
  // instance the model already classifies as the desired class (the
  // unchanged instance must NOT be returned as a "counterfactual").
  Dataset ds = MakeLoanDataset(400);
  auto gbdt = GradientBoostedTrees::Fit(ds, {.num_rounds = 10});
  ASSERT_TRUE(gbdt.ok());
  FeatureSpace space = FeatureSpace::FromDataset(ds);
  std::vector<PlafConstraint> freeze;
  for (size_t j = 0; j < ds.d(); ++j)
    freeze.push_back(PlafConstraint::Immutable(j, "f"));
  for (size_t i : {size_t{0}, size_t{1}, size_t{2}}) {
    auto cfs = GecoCounterfactuals(*gbdt, space, ds.row(i), 1, freeze, {});
    EXPECT_FALSE(cfs.ok()) << "row " << i;
  }
}

TEST(EdgeCases, DatasetSplitExtremes) {
  Dataset ds = MakeGaussianDataset(50, {.seed = 9, .dims = 2});
  Rng rng(1);
  auto [all_train, no_test] = ds.Split(1.0, &rng);
  EXPECT_EQ(all_train.n(), 50u);
  EXPECT_EQ(no_test.n(), 0u);
  Rng rng2(2);
  auto [no_train, all_test] = ds.Split(0.0, &rng2);
  EXPECT_EQ(no_train.n(), 0u);
  EXPECT_EQ(all_test.n(), 50u);
}

TEST(EdgeCases, EmptyMatrixOperations) {
  Matrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.Transpose().rows(), 0u);
  Matrix g = m.Gram();
  EXPECT_EQ(g.rows(), 0u);
}

TEST(EdgeCases, ModelsRejectEmptyData) {
  Schema schema({FeatureSpec::Numeric("a")});
  Dataset empty(schema, Matrix(0, 1), {});
  EXPECT_FALSE(LogisticRegression::Fit(empty).ok());
  EXPECT_FALSE(GradientBoostedTrees::Fit(empty).ok());
  EXPECT_FALSE(DecisionTree::Fit(empty).ok());
  EXPECT_FALSE(RandomForest::Fit(empty).ok());
  EXPECT_FALSE(KnnClassifier::Fit(empty).ok());
}

TEST(EdgeCases, ConstantLabelsStillFit) {
  // Degenerate but legal: all-positive labels. Fits must not crash and
  // must predict confidently positive.
  Schema schema({FeatureSpec::Numeric("a")});
  Matrix x(20, 1);
  for (size_t i = 0; i < 20; ++i) x(i, 0) = static_cast<double>(i);
  Dataset ds(schema, x, std::vector<double>(20, 1.0));
  auto gbdt = GradientBoostedTrees::Fit(ds, {.num_rounds = 5});
  ASSERT_TRUE(gbdt.ok());
  EXPECT_GT(gbdt->Predict({3.0}), 0.9);
  auto logit = LogisticRegression::Fit(ds, {.lambda = 1e-2});
  ASSERT_TRUE(logit.ok());
  EXPECT_GT(logit->Predict({3.0}), 0.8);
}

TEST(EdgeCases, TreeShapExplainerArityMismatch) {
  Dataset ds = MakeLoanDataset(300);
  auto gbdt = GradientBoostedTrees::Fit(ds, {.num_rounds = 5});
  ASSERT_TRUE(gbdt.ok());
  TreeShapExplainer explainer(*gbdt, ds.schema());
  EXPECT_FALSE(explainer.Explain({1.0, 2.0}).ok());
}

}  // namespace
}  // namespace xai
