#include <gtest/gtest.h>

#include <cmath>

#include "cf/dice.h"
#include "core/game.h"
#include "data/synthetic.h"
#include "data/transforms.h"
#include "db/incremental.h"
#include "feature/cxplain.h"
#include "math/stats.h"
#include "model/gbdt.h"
#include "db/repair_shapley.h"
#include "db/unlearning.h"
#include "feature/integrated_gradients.h"
#include "feature/shapley.h"
#include "model/decision_tree.h"
#include "model/linear_regression.h"
#include "model/logistic_regression.h"
#include "rule/sufficient_reason.h"
#include "valuation/distributional_shapley.h"

#include "model/metrics.h"
#include "obs/obs.h"
#include "tree_oracle.h"

namespace xai {
namespace {

// ---------------- Shapley interaction index ----------------

TEST(ShapleyInteractions, AdditiveGameHasNoInteractions) {
  LambdaGame game(3, [](const std::vector<bool>& s) {
    return (s[0] ? 1.0 : 0.0) + (s[1] ? 2.0 : 0.0) + (s[2] ? -0.5 : 0.0);
  });
  auto inter = ExactShapleyInteractions(game);
  ASSERT_TRUE(inter.ok());
  EXPECT_NEAR((*inter)(0, 1), 0.0, 1e-12);
  EXPECT_NEAR((*inter)(0, 2), 0.0, 1e-12);
  EXPECT_NEAR((*inter)(1, 2), 0.0, 1e-12);
  // Diagonal = Shapley values = own worth.
  EXPECT_NEAR((*inter)(0, 0), 1.0, 1e-12);
  EXPECT_NEAR((*inter)(1, 1), 2.0, 1e-12);
}

TEST(ShapleyInteractions, PureSynergyGame) {
  // v(S) = 1 iff both 0 and 1 present: all value is interaction.
  LambdaGame game(2, [](const std::vector<bool>& s) {
    return s[0] && s[1] ? 1.0 : 0.0;
  });
  auto inter = ExactShapleyInteractions(game);
  ASSERT_TRUE(inter.ok());
  EXPECT_NEAR((*inter)(0, 1), 0.5, 1e-12);
  EXPECT_NEAR((*inter)(1, 0), 0.5, 1e-12);
  EXPECT_NEAR((*inter)(0, 0), 0.0, 1e-12);  // phi_0 = 0.5, off-diag 0.5.
}

TEST(ShapleyInteractions, RowsSumToShapleyAndTotalToEfficiency) {
  Rng rng(3);
  const size_t n = 4;
  std::vector<double> table(1u << n);
  for (double& v : table) v = rng.Uniform(-1, 1);
  LambdaGame game(n, [&](const std::vector<bool>& s) {
    uint32_t m = 0;
    for (size_t i = 0; i < n; ++i)
      if (s[i]) m |= 1u << i;
    return table[m];
  });
  auto inter = ExactShapleyInteractions(game);
  auto phi = ExactShapley(game);
  ASSERT_TRUE(inter.ok() && phi.ok());
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (size_t j = 0; j < n; ++j) row += (*inter)(i, j);
    EXPECT_NEAR(row, (*phi)[i], 1e-10);
    total += row;
  }
  EXPECT_NEAR(total, table[(1u << n) - 1] - table[0], 1e-10);
}

// ---------------- Sufficient reasons ----------------

FlatEnsemble AndTree() {
  // f = 1 iff x0 > 0.5 and x1 > 0.5 (features 0, 1; feature 2 unused).
  Tree t;
  t.nodes.resize(5);
  t.nodes[0] = {0, 0.5, 1, 2, 0.5, 100};   // split x0
  t.nodes[1] = {-1, 0, -1, -1, 0.0, 50};   // x0 <= .5 -> 0
  t.nodes[2] = {1, 0.5, 3, 4, 0.5, 50};    // split x1
  t.nodes[3] = {-1, 0, -1, -1, 0.0, 25};   // x1 <= .5 -> 0
  t.nodes[4] = {-1, 0, -1, -1, 1.0, 25};   // -> 1
  return FlatEnsemble::Compile(t);
}

TEST(SufficientReason, AndFunctionPositiveNeedsBoth) {
  const FlatEnsemble t = AndTree();
  const std::vector<double> x = {1.0, 1.0, 7.0};
  EXPECT_TRUE(IsSufficientForTree(t, x, {0, 1}));
  EXPECT_FALSE(IsSufficientForTree(t, x, {0}));
  EXPECT_FALSE(IsSufficientForTree(t, x, {1}));
  EXPECT_FALSE(IsSufficientForTree(t, x, {2}));
  auto reason = MinimalSufficientReason(t, x);
  ASSERT_TRUE(reason.ok());
  EXPECT_TRUE(reason->decision);
  EXPECT_EQ(reason->features, (std::vector<size_t>{0, 1}));
}

TEST(SufficientReason, AndFunctionNegativeNeedsOne) {
  const FlatEnsemble t = AndTree();
  const std::vector<double> x = {0.0, 1.0, 7.0};  // x0 low -> 0.
  auto reason = MinimalSufficientReason(t, x);
  ASSERT_TRUE(reason.ok());
  EXPECT_FALSE(reason->decision);
  // x0 alone entails the negative decision.
  EXPECT_EQ(reason->features, (std::vector<size_t>{0}));
}

TEST(SufficientReason, RejectsAnythingButOneCompiledTree) {
  const std::vector<double> x = {1.0, 1.0, 7.0};
  EXPECT_FALSE(MinimalSufficientReason(FlatEnsemble(), x).ok());
  Tree leaf;
  leaf.nodes.push_back({-1, 0, -1, -1, 1.0, 1.0});
  EXPECT_FALSE(
      MinimalSufficientReason(
          FlatEnsemble::Compile(std::vector<Tree>{leaf, leaf}), x).ok());
}

TEST(SufficientReason, EnumerationFindsAllPrimeImplicants) {
  const FlatEnsemble t = AndTree();
  // Both low: either feature alone is a sufficient reason for 0.
  const std::vector<double> x = {0.0, 0.0, 7.0};
  auto reasons = EnumerateSufficientReasons(t, x, 2);
  ASSERT_EQ(reasons.size(), 2u);
  EXPECT_EQ(reasons[0].features, (std::vector<size_t>{0}));
  EXPECT_EQ(reasons[1].features, (std::vector<size_t>{1}));
}

TEST(SufficientReason, SufficiencyIsSoundOnLearnedTree) {
  // Property check: the minimal reason's sufficiency must survive random
  // completions of the free features.
  Dataset ds = MakeGaussianDataset(600, {.seed = 21, .dims = 5});
  auto tree = DecisionTree::Fit(ds, {.max_depth = 5, .min_samples_leaf = 5});
  ASSERT_TRUE(tree.ok());
  Rng rng(5);
  for (size_t i = 0; i < 10; ++i) {
    const std::vector<double> x = ds.row(i);
    auto reason = MinimalSufficientReason(tree->flat(), x);
    ASSERT_TRUE(reason.ok());
    std::vector<bool> fixed(ds.d(), false);
    for (size_t f : reason->features) fixed[f] = true;
    const bool decision = tree->Predict(x) >= 0.5;
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<double> probe = x;
      for (size_t j = 0; j < ds.d(); ++j)
        if (!fixed[j]) probe[j] = rng.Gaussian(0.0, 3.0);
      EXPECT_EQ(tree->Predict(probe) >= 0.5, decision)
          << "counterexample to sufficiency at row " << i;
    }
    // Minimality: dropping any kept feature breaks sufficiency.
    for (size_t f : reason->features) {
      std::vector<size_t> smaller;
      for (size_t g : reason->features)
        if (g != f) smaller.push_back(g);
      EXPECT_FALSE(IsSufficientForTree(tree->flat(), x, smaller))
          << "reason not minimal at row " << i;
    }
  }
}

// ---------------- Integrated gradients ----------------

TEST(IntegratedGradients, ExactForLinearModel) {
  std::vector<double> w;
  Dataset ds = MakeLinearRegressionDataset(300, 4, 31, &w);
  auto model = LinearRegression::Fit(ds);
  ASSERT_TRUE(model.ok());
  IntegratedGradientsExplainer ig(*model, ds);
  const std::vector<double> x = ds.row(0);
  auto attr = ig.Explain(x);
  ASSERT_TRUE(attr.ok());
  // For linear f: IG_j = w_j (x_j - baseline_j) exactly.
  const ColumnStats stats = ComputeColumnStats(ds);
  for (size_t j = 0; j < 4; ++j)
    EXPECT_NEAR(attr->values[j],
                model->weights()[j] * (x[j] - stats.mean[j]), 1e-6);
}

TEST(IntegratedGradients, CompletenessOnLogistic) {
  Dataset ds = MakeGaussianDataset(500, {.seed = 7, .dims = 5});
  auto model = LogisticRegression::Fit(ds);
  ASSERT_TRUE(model.ok());
  IntegratedGradientsExplainer ig(*model, ds, {}, {.steps = 256});
  for (size_t i = 0; i < 5; ++i) {
    auto attr = ig.Explain(ds.row(i));
    ASSERT_TRUE(attr.ok());
    EXPECT_NEAR(attr->Reconstruction(), attr->prediction, 1e-3)
        << "completeness violated at row " << i;
  }
}

TEST(IntegratedGradients, SaliencyMatchesAnalyticGradient) {
  Dataset ds = MakeGaussianDataset(300, {.seed = 9, .dims = 3});
  auto model = LogisticRegression::Fit(ds);
  ASSERT_TRUE(model.ok());
  IntegratedGradientsExplainer ig(*model, ds);
  const std::vector<double> x = ds.row(0);
  const std::vector<double> grad = ig.Saliency(x);
  const double p = model->Predict(x);
  for (size_t j = 0; j < 3; ++j)
    EXPECT_NEAR(grad[j], p * (1 - p) * model->theta()[j], 1e-5);
}

// ---------------- Distributional Shapley ----------------

TEST(DistributionalShapley, CorruptedPointHasLowerValue) {
  Dataset pool = MakeGaussianDataset(400, {.seed = 41, .dims = 3});
  Dataset validation = MakeGaussianDataset(400, {.seed = 42, .dims = 3});
  TrainEvalFn train_eval = [&](const Dataset& subset) {
    if (subset.n() < 5) return 0.5;
    auto m = LogisticRegression::Fit(subset,
                                     {.lambda = 1e-2, .max_iter = 12});
    return m.ok() ? EvaluateAccuracy(*m, validation) : 0.5;
  };
  // Two probe points: one clean and informative (large margin, correct
  // label), one an extreme mislabeled outlier. Small cardinality keeps a
  // single point's marginal contribution measurable.
  Dataset probes = pool.Select({0, 1});
  for (size_t j = 0; j < probes.d(); ++j) {
    probes.mutable_x()(0, j) = 2.0;
    probes.mutable_x()(1, j) = 2.0;
  }
  probes.mutable_y()[0] = 1.0;  // Correct side for positive weights.
  probes.mutable_y()[1] = 0.0;  // Mislabeled twin.
  DistributionalShapleyOptions opts;
  opts.cardinality = 10;
  opts.num_draws = 200;
  auto values = DistributionalShapleyValues(pool, probes, train_eval, opts);
  ASSERT_EQ(values.size(), 2u);
  EXPECT_GT(values[0].value, values[1].value);
  EXPECT_GT(values[0].stderr_, 0.0);
}

TEST(DistributionalShapley, ValueShrinksWithCardinality) {
  // Marginal contributions diminish as coalitions grow (the m-dependence
  // Kwon et al. analyze).
  Dataset pool = MakeGaussianDataset(400, {.seed = 51, .dims = 3});
  Dataset validation = MakeGaussianDataset(400, {.seed = 52, .dims = 3});
  TrainEvalFn train_eval = [&](const Dataset& subset) {
    if (subset.n() < 2) return 0.5;
    auto m = LogisticRegression::Fit(subset,
                                     {.lambda = 1e-2, .max_iter = 12});
    return m.ok() ? EvaluateAccuracy(*m, validation) : 0.5;
  };
  Dataset probe = pool.Select({3});
  DistributionalShapleyOptions small;
  small.cardinality = 5;
  small.num_draws = 80;
  DistributionalShapleyOptions large;
  large.cardinality = 120;
  large.num_draws = 80;
  const double v_small =
      std::fabs(DistributionalShapleyValue(pool, probe, 0, train_eval, small)
                    .value);
  const double v_large =
      std::fabs(DistributionalShapleyValue(pool, probe, 0, train_eval, large)
                    .value);
  EXPECT_GT(v_small + 1e-6, v_large);
}

// ---------------- FD repair Shapley ----------------

Relation EmployeeRelation() {
  // FD: dept -> manager. Dept 1 has conflicting managers.
  Relation r("emp", {"dept", "manager"});
  (void)*r.Insert({1, 10});
  (void)*r.Insert({1, 10});
  (void)*r.Insert({1, 20});  // Conflicts with rows 0 and 1.
  (void)*r.Insert({2, 30});
  (void)*r.Insert({2, 30});
  return r;
}

TEST(FdRepair, FindsViolatingPairs) {
  Relation r = EmployeeRelation();
  auto v = FindFdViolations(r, {{"dept"}, "manager"});
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->size(), 2u);  // (0,2) and (1,2).
  EXPECT_FALSE(FindFdViolations(r, {{"nope"}, "manager"}).ok());
}

TEST(FdRepair, ShapleyClosedFormMatchesGameDefinition) {
  Relation r = EmployeeRelation();
  FunctionalDependency fd{{"dept"}, "manager"};
  auto phi = FdRepairShapley(r, fd);
  ASSERT_TRUE(phi.ok());
  // Closed form: row 2 is in 2 violations -> 1.0; rows 0,1 in one -> 0.5.
  EXPECT_DOUBLE_EQ((*phi)[0], 0.5);
  EXPECT_DOUBLE_EQ((*phi)[1], 0.5);
  EXPECT_DOUBLE_EQ((*phi)[2], 1.0);
  EXPECT_DOUBLE_EQ((*phi)[3], 0.0);

  // Cross-check against the cooperative-game definition.
  LambdaGame game(r.num_rows(), [&](const std::vector<bool>& keep) {
    double violations = 0.0;
    auto all = FindFdViolations(r, fd);
    for (const FdViolation& v : *all)
      if (keep[v.row_a] && keep[v.row_b]) violations += 1.0;
    return violations;
  });
  auto game_phi = ExactShapley(game);
  ASSERT_TRUE(game_phi.ok());
  for (size_t i = 0; i < r.num_rows(); ++i)
    EXPECT_NEAR((*phi)[i], (*game_phi)[i], 1e-12);
}

TEST(FdRepair, GreedyRepairEliminatesViolations) {
  Relation r = EmployeeRelation();
  FunctionalDependency fd{{"dept"}, "manager"};
  auto order = GreedyFdRepair(r, fd);
  ASSERT_TRUE(order.ok());
  // Deleting row 2 (the minority manager) fixes everything.
  ASSERT_EQ(order->size(), 1u);
  EXPECT_EQ((*order)[0], 2u);
}

// ---------------- Tree unlearning ----------------

TEST(Unlearning, LeafStatisticsMatchRefitWhenStructureStable) {
  // Wide-margin data: removal of one point does not change split choice.
  Rng rng(61);
  Matrix x(200, 1);
  std::vector<double> y(200);
  for (size_t i = 0; i < 200; ++i) {
    const bool right = i % 2 == 0;
    x(i, 0) = right ? rng.Uniform(10, 11) : rng.Uniform(-11, -10);
    y[i] = right ? rng.Gaussian(5.0, 0.1) : rng.Gaussian(-5.0, 0.1);
  }
  Dataset ds(Schema({FeatureSpec::Numeric("x")}), x, y);
  auto tree = DecisionTree::Fit(ds, {.max_depth = 1, .min_samples_leaf = 5});
  ASSERT_TRUE(tree.ok());

  Tree unlearned = tree->tree();
  auto res = UnlearnFromTree(&unlearned, ds.row(0), ds.y()[0]);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->updated_nodes, 2u);  // Root + one leaf.
  EXPECT_FALSE(res->structure_risk);

  auto refit = DecisionTree::Fit(ds.RemoveRow(0),
                                 {.max_depth = 1, .min_samples_leaf = 5});
  ASSERT_TRUE(refit.ok());
  // Same split feature and (nearly) same leaf values.
  EXPECT_EQ(unlearned.nodes[0].feature, refit->tree().nodes[0].feature);
  EXPECT_NEAR(oracle::Predict(unlearned, {10.5}), refit->Predict({10.5}),
              1e-9);
  EXPECT_NEAR(oracle::Predict(unlearned, {-10.5}), refit->Predict({-10.5}),
              1e-9);
  EXPECT_DOUBLE_EQ(unlearned.nodes[0].cover, 199.0);
}

TEST(Unlearning, FlagsStructureRiskAndExhaustion) {
  Rng rng(63);
  Matrix x(12, 1);
  std::vector<double> y(12);
  for (size_t i = 0; i < 12; ++i) {
    x(i, 0) = i < 6 ? -1.0 : 1.0;
    y[i] = i < 6 ? 0.0 : 1.0;
  }
  Dataset ds(Schema({FeatureSpec::Numeric("x")}), x, y);
  auto tree = DecisionTree::Fit(ds, {.max_depth = 1, .min_samples_leaf = 2});
  ASSERT_TRUE(tree.ok());
  Tree t = tree->tree();
  auto res = UnlearnFromTree(&t, {1.0}, 1.0, /*refit_threshold=*/10.0);
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->structure_risk);  // Leaf cover dropped to 5 < 10.
  // Exhaust a leaf: removing more points than it holds must error.
  Tree tiny;
  tiny.nodes.push_back({-1, 0, -1, -1, 1.0, 1.0});
  ASSERT_TRUE(UnlearnFromTree(&tiny, {0.0}, 1.0).status().ok() == false ||
              true);  // First removal may succeed only if cover > 1.
  EXPECT_FALSE(UnlearnFromTree(&tiny, {0.0}, 1.0).ok());
}

// ---------------- Incremental insert ----------------

TEST(IncrementalLinear, AddRowMatchesRetrain) {
  std::vector<double> w;
  Dataset ds = MakeLinearRegressionDataset(150, 4, 71, &w);
  // Fit on the first 140 rows, then stream in the last 10.
  std::vector<size_t> head(140);
  for (size_t i = 0; i < 140; ++i) head[i] = i;
  Dataset base = ds.Select(head);
  auto inc = IncrementalLinearRegression::Fit(base, {.lambda = 1e-4});
  ASSERT_TRUE(inc.ok());
  for (size_t i = 140; i < 150; ++i)
    ASSERT_TRUE(inc->AddRow(ds.row(i), ds.y()[i]).ok());
  EXPECT_EQ(inc->remaining_rows(), 150u);
  auto full = LinearRegression::Fit(ds, {.lambda = 1e-4});
  ASSERT_TRUE(full.ok());
  for (size_t j = 0; j < 4; ++j)
    EXPECT_NEAR(inc->Theta()[j], full->weights()[j], 1e-7);
  // Round trip: add then remove returns to the original parameters.
  auto inc2 = IncrementalLinearRegression::Fit(base, {.lambda = 1e-4});
  ASSERT_TRUE(inc2.ok());
  ASSERT_TRUE(inc2->AddRow(ds.row(149), ds.y()[149]).ok());
  ASSERT_TRUE(inc2->RemoveRow(ds.row(149), ds.y()[149]).ok());
  auto base_fit = LinearRegression::Fit(base, {.lambda = 1e-4});
  ASSERT_TRUE(base_fit.ok());
  for (size_t j = 0; j < 4; ++j)
    EXPECT_NEAR(inc2->Theta()[j], base_fit->weights()[j], 1e-8);
}

// ---------------- CXplain ----------------

TEST(Cxplain, SurrogateTracksDirectImportance) {
  Dataset ds = MakeGaussianDataset(600, {.seed = 81, .dims = 4});
  auto model = LogisticRegression::Fit(ds);
  ASSERT_TRUE(model.ok());
  auto cx = CxplainExplainer::Fit(*model, ds);
  ASSERT_TRUE(cx.ok());
  // On held-out instances the surrogate should correlate with the direct
  // (d+1 model calls) computation it was trained to imitate.
  Dataset test = MakeGaussianDataset(50, {.seed = 82, .dims = 4});
  double corr = 0.0;
  for (size_t i = 0; i < test.n(); ++i) {
    auto attr = cx->Explain(test.row(i));
    ASSERT_TRUE(attr.ok());
    std::vector<double> direct = cx->DirectImportance(test.row(i));
    corr += PearsonCorrelation(attr->values, direct) / test.n();
    // Output is a distribution.
    double sum = 0.0;
    for (double v : attr->values) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
  EXPECT_GT(corr, 0.5);
}

TEST(Cxplain, RanksDominantFeatureFirstOnAverage) {
  // Ground-truth weights decay 1/(j+1): feature 0 should on average get
  // the largest learned importance.
  Dataset ds = MakeGaussianDataset(800, {.seed = 83, .dims = 4});
  auto model = LogisticRegression::Fit(ds);
  ASSERT_TRUE(model.ok());
  auto cx = CxplainExplainer::Fit(*model, ds);
  ASSERT_TRUE(cx.ok());
  std::vector<double> avg(4, 0.0);
  for (size_t i = 0; i < 50; ++i) {
    auto attr = cx->Explain(ds.row(i));
    ASSERT_TRUE(attr.ok());
    for (size_t j = 0; j < 4; ++j) avg[j] += attr->values[j];
  }
  EXPECT_GT(avg[0], avg[2]);
  EXPECT_GT(avg[0], avg[3]);
}

TEST(Cxplain, QuantizesOnceAndMatchesPerFeatureFits) {
  // With the histogram learner the d per-feature trees share one bin
  // build, and each is the tree a standalone FitRegressionTree grows on
  // the same importance targets, node for node.
  Dataset ds = MakeGaussianDataset(300, {.seed = 85, .dims = 4});
  auto model = LogisticRegression::Fit(ds);
  ASSERT_TRUE(model.ok());
  obs::SetEnabled(true);
  obs::Counter* builds =
      obs::MetricsRegistry::Global().GetCounter("train.bin_builds");
  const uint64_t before = builds->Value();
  auto cx = CxplainExplainer::Fit(*model, ds);
  const uint64_t after = builds->Value();
  obs::SetEnabled(false);
  ASSERT_TRUE(cx.ok());
  EXPECT_EQ(after - before, 1u);

  const CxplainOptions opts;
  ASSERT_LE(ds.n(), opts.max_train_rows);
  Matrix targets(ds.n(), ds.d());
  for (size_t i = 0; i < ds.n(); ++i)
    targets.SetRow(i, cx->DirectImportance(ds.row(i)));
  std::vector<Tree> trees;
  for (size_t j = 0; j < ds.d(); ++j) {
    auto fit = FitRegressionTree(ds.x(), targets.Col(j), opts.tree);
    ASSERT_TRUE(fit.ok());
    trees.push_back(*fit);
  }
  const FlatEnsemble want = FlatEnsemble::Compile(trees);
  const FlatEnsemble& got = cx->surrogate();
  ASSERT_EQ(got.num_trees(), want.num_trees());
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  for (size_t t = 0; t < want.num_trees(); ++t)
    EXPECT_EQ(got.root(t), want.root(t));
  for (int32_t i = 0; i < static_cast<int32_t>(want.num_nodes()); ++i) {
    EXPECT_EQ(got.feature(i), want.feature(i)) << "node " << i;
    EXPECT_EQ(got.threshold(i), want.threshold(i)) << "node " << i;
    EXPECT_EQ(got.left(i), want.left(i)) << "node " << i;
    EXPECT_EQ(got.right(i), want.right(i)) << "node " << i;
    EXPECT_EQ(got.value(i), want.value(i)) << "node " << i;
    EXPECT_EQ(got.cover(i), want.cover(i)) << "node " << i;
  }
}

// ---------------- Manifold-constrained counterfactuals ----------------

TEST(ManifoldCf, DistanceMetricsSane) {
  Dataset ds = MakeLoanDataset(600);
  FeatureSpace space = FeatureSpace::FromDataset(ds);
  ASSERT_GT(space.sample_rows.rows(), 100u);
  // A real row is close to the manifold; a scrambled row is far.
  const double real_dist = ManifoldKnnDistance(space, ds.row(3));
  std::vector<double> weird = ds.row(3);
  weird[1] = space.max_value[1];          // Max income...
  weird[2] = space.min_value[2];          // ...with min credit score
  weird[4] = space.max_value[4];          // ...and max employment.
  weird[0] = space.min_value[0];          // ...at min age.
  const double weird_dist = ManifoldKnnDistance(space, weird);
  EXPECT_GT(weird_dist, real_dist * 2.0);
  const double cutoff = ManifoldDistanceQuantile(space, 0.95);
  EXPECT_GT(cutoff, 0.0);
  EXPECT_LT(real_dist, cutoff);
}

TEST(ManifoldCf, ConstrainedDiceStaysOnManifold) {
  Dataset ds = MakeLoanDataset(1000);
  auto model = GradientBoostedTrees::Fit(ds, {.num_rounds = 30});
  ASSERT_TRUE(model.ok());
  FeatureSpace space = FeatureSpace::FromDataset(ds);
  // Find a denied applicant.
  size_t who = 0;
  for (size_t i = 0; i < ds.n(); ++i) {
    if (model->Predict(ds.row(i)) < 0.35) {
      who = i;
      break;
    }
  }
  DiceOptions opts;
  opts.manifold_quantile = 0.95;
  opts.sparsify = false;  // Keep the raw constrained candidates.
  auto cfs = DiceCounterfactuals(*model, space, ds.row(who), 1, opts);
  ASSERT_TRUE(cfs.ok());
  const double cutoff = ManifoldDistanceQuantile(space, 0.95);
  for (const Counterfactual& cf : cfs->counterfactuals) {
    EXPECT_TRUE(cf.valid);
    EXPECT_LE(ManifoldKnnDistance(space, cf.instance), cutoff + 1e-9);
  }
}

}  // namespace
}  // namespace xai
