#include <gtest/gtest.h>

#include <cmath>

#include "core/game.h"
#include "data/synthetic.h"
#include "data/transforms.h"
#include "feature/shapley.h"
#include "math/stats.h"
#include "model/knn.h"
#include "model/metrics.h"
#include "tree_oracle.h"
#include "valuation/data_valuation.h"
#include "valuation/gbdt_influence.h"
#include "valuation/cooks_distance.h"
#include "valuation/influence.h"

namespace xai {
namespace {

/// Logistic-regression trainer/evaluator closed over a validation set.
TrainEvalFn LogisticTrainEval(const Dataset* validation) {
  return [validation](const Dataset& train) {
    if (train.n() < 5) return 0.5;
    auto m = LogisticRegression::Fit(train, {.lambda = 1e-2, .max_iter = 15});
    if (!m.ok()) return 0.5;
    return EvaluateAccuracy(*m, *validation);
  };
}

TEST(LeaveOneOut, DetectsAnOutlier) {
  // A blatantly mislabeled point far inside the other class hurts the
  // model; LOO value should be clearly negative for it.
  Dataset ds = MakeGaussianDataset(60, {.seed = 2, .dims = 2});
  Rng rng(4);
  std::vector<size_t> corrupted = InjectLabelNoise(&ds, 0.05, &rng);
  Rng vrng(5);
  Dataset validation = MakeGaussianDataset(300, {.seed = 99, .dims = 2});
  std::vector<double> values =
      LeaveOneOutValues(ds, LogisticTrainEval(&validation));
  ASSERT_EQ(values.size(), 60u);
  // Mean value of corrupted points < mean value of clean points.
  double vc = 0.0;
  double vk = 0.0;
  size_t nc = 0;
  std::vector<bool> is_corr(ds.n(), false);
  for (size_t i : corrupted) is_corr[i] = true;
  for (size_t i = 0; i < ds.n(); ++i) {
    if (is_corr[i]) {
      vc += values[i];
      ++nc;
    } else {
      vk += values[i];
    }
  }
  ASSERT_GT(nc, 0u);
  EXPECT_LT(vc / nc, vk / (ds.n() - nc));
}

TEST(TmcDataShapley, RanksCorruptedPointsLow) {
  Dataset train = MakeGaussianDataset(80, {.seed = 11, .dims = 3});
  Dataset validation = MakeGaussianDataset(400, {.seed = 12, .dims = 3});
  Rng rng(13);
  std::vector<size_t> corrupted = InjectLabelNoise(&train, 0.2, &rng);
  std::vector<double> values = TmcDataShapley(
      train, LogisticTrainEval(&validation),
      {.num_permutations = 25, .truncation_tol = 0.002, .seed = 21});
  const double detection =
      CorruptionDetectionRate(values, corrupted, corrupted.size() * 2);
  // Inspecting the bottom 2f points should find well over the random
  // baseline (~2f * f / n = 0.4 of the corrupted set at f=0.2).
  EXPECT_GT(detection, 0.55);
}

TEST(TmcDataShapley, EfficiencyApproximatelyHolds) {
  // Sum of values ~ perf(full) - perf(empty).
  Dataset train = MakeGaussianDataset(40, {.seed = 31, .dims = 2});
  Dataset validation = MakeGaussianDataset(400, {.seed = 32, .dims = 2});
  TrainEvalFn te = LogisticTrainEval(&validation);
  std::vector<double> values = TmcDataShapley(
      train, te, {.num_permutations = 60, .truncation_tol = 0.0});
  double sum = 0.0;
  for (double v : values) sum += v;
  EXPECT_NEAR(sum, te(train) - 0.5, 0.02);
}

TEST(KnnShapley, MatchesMonteCarloShapleyOnTinyProblem) {
  // Exact recurrence vs brute-force Shapley of the KNN utility game.
  const int k = 3;
  Dataset train = MakeGaussianDataset(10, {.seed = 41, .dims = 2});
  Dataset validation = MakeGaussianDataset(40, {.seed = 42, .dims = 2});
  std::vector<double> exact = ExactKnnShapley(train, validation, k);

  // The utility the Jia et al. recurrence targets:
  //   v(S) = mean over validation points of
  //          (1/K) * #matching labels among the min(K, |S|) nearest
  //          coalition members. Empty coalition scores 0.
  LambdaGame game(train.n(), [&](const std::vector<bool>& s) {
    std::vector<size_t> keep;
    for (size_t i = 0; i < train.n(); ++i)
      if (s[i]) keep.push_back(i);
    if (keep.empty()) return 0.0;
    double total = 0.0;
    for (size_t v = 0; v < validation.n(); ++v) {
      const std::vector<double> xv = validation.row(v);
      std::vector<std::pair<double, size_t>> dist;
      for (size_t i : keep) {
        double d2 = 0.0;
        for (size_t j = 0; j < train.d(); ++j) {
          const double dd = train.x()(i, j) - xv[j];
          d2 += dd * dd;
        }
        dist.emplace_back(d2, i);
      }
      std::sort(dist.begin(), dist.end());
      const size_t kk = std::min<size_t>(static_cast<size_t>(k),
                                         dist.size());
      double matches = 0.0;
      for (size_t r = 0; r < kk; ++r) {
        if ((train.y()[dist[r].second] >= 0.5) ==
            (validation.y()[v] >= 0.5))
          matches += 1.0;
      }
      total += matches / static_cast<double>(k);
    }
    return total / static_cast<double>(validation.n());
  });
  auto brute = ExactShapley(game, 12);
  ASSERT_TRUE(brute.ok());
  for (size_t i = 0; i < train.n(); ++i)
    EXPECT_NEAR(exact[i], (*brute)[i], 1e-9) << "point " << i;
}

TEST(KnnShapley, DetectsCorruptedLabels) {
  Dataset train = MakeGaussianDataset(300, {.seed = 51, .dims = 3});
  Dataset validation = MakeGaussianDataset(300, {.seed = 52, .dims = 3});
  Rng rng(53);
  std::vector<size_t> corrupted = InjectLabelNoise(&train, 0.15, &rng);
  std::vector<double> values = ExactKnnShapley(train, validation, 5);
  const double detection =
      CorruptionDetectionRate(values, corrupted, corrupted.size() * 2);
  EXPECT_GT(detection, 0.6);
}

TEST(Influence, MatchesLeaveOneOutRetraining) {
  // The headline Koh & Liang result: first-order influence correlates
  // strongly with the actual retraining delta.
  Dataset train = MakeGaussianDataset(120, {.seed = 61, .dims = 3});
  Dataset validation = MakeGaussianDataset(400, {.seed = 62, .dims = 3});
  LogisticRegression::Options mopts{.lambda = 0.05, .max_iter = 60,
                                    .tol = 1e-12};
  auto model = LogisticRegression::Fit(train, mopts);
  ASSERT_TRUE(model.ok());
  auto calc = InfluenceCalculator::Create(*model, train);
  ASSERT_TRUE(calc.ok());
  std::vector<double> predicted = calc->InfluenceOnValidationLoss(validation);

  // Ground truth by retraining.
  std::vector<double> actual(train.n());
  auto val_loss = [&](const LogisticRegression& m) {
    return LogLoss(m.PredictBatch(validation.x()), validation.y());
  };
  const double base_loss = val_loss(*model);
  for (size_t i = 0; i < train.n(); ++i) {
    auto retrained = LogisticRegression::Fit(train.RemoveRow(i), mopts);
    ASSERT_TRUE(retrained.ok());
    actual[i] = val_loss(*retrained) - base_loss;
  }
  EXPECT_GT(PearsonCorrelation(predicted, actual), 0.95);
}

TEST(Influence, CgMatchesCholesky) {
  Dataset train = MakeGaussianDataset(150, {.seed = 71, .dims = 4});
  Dataset validation = MakeGaussianDataset(150, {.seed = 72, .dims = 4});
  auto model = LogisticRegression::Fit(train, {.lambda = 0.02});
  ASSERT_TRUE(model.ok());
  auto chol = InfluenceCalculator::Create(
      *model, train, {.solver = HessianSolver::kCholesky});
  auto cg = InfluenceCalculator::Create(
      *model, train, {.solver = HessianSolver::kConjugateGradient});
  ASSERT_TRUE(chol.ok() && cg.ok());
  auto a = chol->InfluenceOnValidationLoss(validation);
  auto b = cg->InfluenceOnValidationLoss(validation);
  for (size_t i = 0; i < train.n(); ++i) EXPECT_NEAR(a[i], b[i], 1e-8);
}

TEST(GroupInfluence, SecondOrderBeatsFirstOrderForLargeGroups) {
  Dataset train = MakeGaussianDataset(250, {.seed = 81, .dims = 3});
  LogisticRegression::Options mopts{.lambda = 0.05, .max_iter = 60,
                                    .tol = 1e-12};
  auto model = LogisticRegression::Fit(train, mopts);
  ASSERT_TRUE(model.ok());
  auto calc = InfluenceCalculator::Create(*model, train);
  ASSERT_TRUE(calc.ok());

  // Remove a correlated group: the 20% of points with largest x0 (their
  // gradients point the same way, which breaks first-order additivity).
  std::vector<size_t> order(train.n());
  for (size_t i = 0; i < train.n(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return train.x()(a, 0) > train.x()(b, 0);
  });
  std::vector<size_t> group(order.begin(), order.begin() + 50);

  auto exact = calc->GroupParamChangeRetrain(group);
  ASSERT_TRUE(exact.ok());
  std::vector<double> first = calc->GroupParamChangeFirstOrder(group);
  auto second = calc->GroupParamChangeSecondOrder(group);
  ASSERT_TRUE(second.ok());

  double err1 = 0.0;
  double err2 = 0.0;
  for (size_t a = 0; a < exact->size(); ++a) {
    err1 += std::pow((*exact)[a] - first[a], 2);
    err2 += std::pow((*exact)[a] - (*second)[a], 2);
  }
  EXPECT_LT(err2, err1);
  // Second order should be very close to the exact change.
  EXPECT_LT(std::sqrt(err2), 0.35 * std::sqrt(err1) + 1e-4);
}

TEST(GbdtInfluence, LeafRefitMatchesManualLeafRecomputation) {
  Dataset train = MakeGaussianDataset(200, {.seed = 91, .dims = 3});
  auto gbdt = GradientBoostedTrees::Fit(
      train, {.loss = GbdtLoss::kSquared, .num_rounds = 1,
              .learning_rate = 1.0});
  ASSERT_TRUE(gbdt.ok());
  auto infl = GbdtLeafInfluence::Create(*gbdt, train);
  ASSERT_TRUE(infl.ok());

  // With a single squared-loss tree and lr=1, removing point i changes
  // the prediction at its own leaf from mean(residuals) to the mean
  // without it; verify against direct recomputation.
  const Tree& tree = gbdt->trees()[0];
  const std::vector<double> x = train.row(7);
  const int leaf = oracle::LeafIndex(tree, x);
  std::vector<double> deltas = infl->InfluenceOnPrediction(x);
  // Manual: residuals at round 0 are y - mean(y).
  double base = 0.0;
  for (double y : train.y()) base += y / static_cast<double>(train.n());
  std::vector<double> members;
  for (size_t i = 0; i < train.n(); ++i)
    if (oracle::LeafIndex(tree, train.row(i)) == leaf)
      members.push_back(train.y()[i] - base);
  const double leaf_value = Mean(members);
  for (size_t i = 0; i < train.n(); ++i) {
    if (oracle::LeafIndex(tree, train.row(i)) != leaf) {
      EXPECT_DOUBLE_EQ(deltas[i], 0.0);
      continue;
    }
    // Recompute mean without i's residual.
    const double ri = train.y()[i] - base;
    const double m = static_cast<double>(members.size());
    const double new_value = (leaf_value * m - ri) / (m - 1.0);
    EXPECT_NEAR(deltas[i], new_value - leaf_value, 1e-9);
  }
}

TEST(GbdtInfluence, CorrelatesWithActualRemoval) {
  // LeafRefit models the *margin* change under fixed structure; compare
  // against actual retraining margin deltas on test points.
  Dataset train = MakeGaussianDataset(120, {.seed = 95, .dims = 3});
  Dataset test = MakeGaussianDataset(30, {.seed = 96, .dims = 3});
  GbdtOptions gopts{.num_rounds = 6, .learning_rate = 0.5};
  auto gbdt = GradientBoostedTrees::Fit(train, gopts);
  ASSERT_TRUE(gbdt.ok());
  auto infl = GbdtLeafInfluence::Create(*gbdt, train);
  ASSERT_TRUE(infl.ok());

  // Aggregate predicted margin change over the test points, per train row.
  std::vector<double> predicted(train.n(), 0.0);
  for (size_t v = 0; v < test.n(); ++v) {
    std::vector<double> dm = infl->InfluenceOnPrediction(test.row(v));
    for (size_t i = 0; i < train.n(); ++i) predicted[i] += dm[i];
  }
  // Ground truth: exact LeafRefit — keep every tree's structure frozen
  // but replay boosting without point i, so leaf values *and* residual
  // drift are exact. The unit under test ignores drift only.
  auto exact_leaf_refit_margin = [&](size_t skip,
                                     const std::vector<double>& x) {
    const size_t n = train.n();
    std::vector<double> margin(n, gbdt->base_score());
    double test_margin = gbdt->base_score();
    for (const Tree& tree : gbdt->trees()) {
      std::vector<double> leaf_g(tree.nodes.size(), 0.0);
      std::vector<double> leaf_h(tree.nodes.size(), 0.0);
      std::vector<int> leaf_of(n);
      for (size_t i = 0; i < n; ++i) {
        if (i == skip) continue;
        const std::vector<double> xi = train.row(i);
        const double p = Sigmoid(margin[i]);
        const double g = train.y()[i] - p;
        const double h = std::max(p * (1.0 - p), 1e-6);
        const int leaf = oracle::LeafIndex(tree, xi);
        leaf_of[i] = leaf;
        leaf_g[static_cast<size_t>(leaf)] += g;
        leaf_h[static_cast<size_t>(leaf)] += h;
      }
      auto value_of = [&](int leaf) {
        const double h = leaf_h[static_cast<size_t>(leaf)];
        return h > 1e-12 ? leaf_g[static_cast<size_t>(leaf)] / h : 0.0;
      };
      for (size_t i = 0; i < n; ++i) {
        if (i == skip) continue;
        margin[i] += gbdt->learning_rate() * value_of(leaf_of[i]);
      }
      test_margin +=
          gbdt->learning_rate() * value_of(oracle::LeafIndex(tree, x));
    }
    return test_margin;
  };

  std::vector<double> actual;
  std::vector<double> pred_sub;
  std::vector<double> base_margin(test.n());
  for (size_t v = 0; v < test.n(); ++v)
    base_margin[v] = gbdt->PredictMargin(test.row(v));
  for (size_t i = 0; i < train.n(); i += 3) {
    double delta = 0.0;
    for (size_t v = 0; v < test.n(); ++v)
      delta += exact_leaf_refit_margin(i, test.row(v)) - base_margin[v];
    actual.push_back(delta);
    pred_sub.push_back(predicted[i]);
  }
  // Only residual drift is ignored by the fast path: high agreement.
  EXPECT_GT(SpearmanCorrelation(pred_sub, actual), 0.8);
}

TEST(CooksDistance, ExactParamChangeMatchesRetraining) {
  std::vector<double> w;
  Dataset ds = MakeLinearRegressionDataset(120, 4, 101, &w);
  auto model = LinearRegression::Fit(ds, {.lambda = 1e-10});
  ASSERT_TRUE(model.ok());
  auto report = ComputeCooksDistance(*model, ds);
  ASSERT_TRUE(report.ok());
  for (size_t i = 0; i < 10; ++i) {
    auto retrained = LinearRegression::Fit(ds.RemoveRow(i), {.lambda = 1e-10});
    ASSERT_TRUE(retrained.ok());
    for (size_t j = 0; j < 4; ++j) {
      EXPECT_NEAR(report->param_change[i][j],
                  retrained->weights()[j] - model->weights()[j], 1e-6)
          << "point " << i << " weight " << j;
    }
    EXPECT_NEAR(report->param_change[i][4],
                retrained->intercept() - model->intercept(), 1e-6);
  }
  // Leverage is in (0, 1) and sums to the parameter count.
  double h_sum = 0.0;
  for (double h : report->leverage) {
    EXPECT_GT(h, 0.0);
    EXPECT_LT(h, 1.0);
    h_sum += h;
  }
  EXPECT_NEAR(h_sum, 5.0, 1e-6);  // d + 1 parameters.
}

TEST(CooksDistance, FlagsInjectedOutlier) {
  std::vector<double> w;
  Dataset ds = MakeLinearRegressionDataset(150, 3, 103, &w);
  // Corrupt one response massively.
  ds.mutable_y()[42] += 50.0;
  auto model = LinearRegression::Fit(ds, {.lambda = 1e-10});
  ASSERT_TRUE(model.ok());
  auto report = ComputeCooksDistance(*model, ds);
  ASSERT_TRUE(report.ok());
  size_t argmax = 0;
  for (size_t i = 1; i < ds.n(); ++i)
    if (report->cooks_distance[i] > report->cooks_distance[argmax])
      argmax = i;
  EXPECT_EQ(argmax, 42u);
  EXPECT_FALSE(
      ComputeCooksDistance(*model, ds.Select({0, 1, 2})).ok());  // n <= d+1.
}

TEST(CorruptionDetection, RateSemantics) {
  std::vector<double> values = {0.5, -1.0, 0.3, -2.0, 0.9};
  std::vector<size_t> corrupted = {1, 3};
  EXPECT_DOUBLE_EQ(CorruptionDetectionRate(values, corrupted, 2), 1.0);
  EXPECT_DOUBLE_EQ(CorruptionDetectionRate(values, corrupted, 1), 0.5);
  EXPECT_DOUBLE_EQ(CorruptionDetectionRate(values, {}, 2), 0.0);
}

}  // namespace
}  // namespace xai
