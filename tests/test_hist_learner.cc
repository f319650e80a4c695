// Binned training pipeline: BinMapper/BinnedDataset quantization (checked
// bound for bound and code for code against the sort-based oracle in
// binned_oracle.h), non-finite rejection, the histogram tree learner's
// parity with the exact sort-per-node oracle, histogram subtraction,
// thread-count bit-identity, and the GBDT/forest integration, and the
// training-input check every tree fit runs first (`ctest -L train`; in the
// TSan CI job for the per-feature ParallelFor sweeps).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/binned.h"
#include "data/csv.h"
#include "data/synthetic.h"
#include "model/decision_tree.h"
#include "model/gbdt.h"
#include "model/hist_learner.h"
#include "model/metrics.h"
#include "model/tree.h"
#include "binned_oracle.h"
#include "tree_oracle.h"

namespace xai {
namespace {

/// RAII reset so no test leaks a SetGlobalThreads override.
struct ThreadCountGuard {
  ~ThreadCountGuard() { SetGlobalThreads(0); }
};

TreeConfig ExactConfig(int max_depth, int min_samples_leaf) {
  TreeConfig cfg;
  cfg.max_depth = max_depth;
  cfg.min_samples_leaf = min_samples_leaf;
  cfg.train.method = TrainMethod::kExact;
  return cfg;
}

TreeConfig HistConfig(int max_depth, int min_samples_leaf,
                      int max_bins = 256) {
  TreeConfig cfg;
  cfg.max_depth = max_depth;
  cfg.min_samples_leaf = min_samples_leaf;
  cfg.train.method = TrainMethod::kHist;
  cfg.train.max_bins = max_bins;
  return cfg;
}

/// Integer-valued features and targets keep every histogram sum exact, so
/// learner comparisons can demand bitwise equality instead of epsilons.
Dataset MakeIntegerDataset(size_t n, size_t d, uint64_t seed,
                           int distinct_values = 20) {
  Rng rng(seed);
  Matrix x(n, d);
  std::vector<double> y(n);
  for (size_t i = 0; i < n; ++i) {
    double score = 0.0;
    for (size_t j = 0; j < d; ++j) {
      x(i, j) = static_cast<double>(
          rng.NextInt(static_cast<uint64_t>(distinct_values)));
      score += (j % 2 == 0 ? 1.0 : -1.0) * x(i, j);
    }
    y[i] = score > 0.0 ? 1.0 : 0.0;
  }
  std::vector<FeatureSpec> specs;
  for (size_t j = 0; j < d; ++j)
    specs.push_back(FeatureSpec::Numeric("f" + std::to_string(j)));
  return Dataset(Schema(specs), std::move(x), std::move(y));
}

void ExpectIdenticalTrees(const Tree& a, const Tree& b,
                          bool compare_thresholds) {
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].feature, b.nodes[i].feature) << "node " << i;
    EXPECT_EQ(a.nodes[i].left, b.nodes[i].left) << "node " << i;
    EXPECT_EQ(a.nodes[i].right, b.nodes[i].right) << "node " << i;
    EXPECT_EQ(a.nodes[i].value, b.nodes[i].value) << "node " << i;
    EXPECT_EQ(a.nodes[i].cover, b.nodes[i].cover) << "node " << i;
    if (compare_thresholds)
      EXPECT_EQ(a.nodes[i].threshold, b.nodes[i].threshold) << "node " << i;
  }
}

// ---------------------------------------------------------------- BinMapper

Matrix ColumnMatrix(const std::vector<double>& vals) {
  Matrix x(vals.size(), 1);
  for (size_t i = 0; i < vals.size(); ++i) x(i, 0) = vals[i];
  return x;
}

/// The mapper BinnedDataset::Build gives `vals` as a one-column matrix.
BinMapper MapperOf(const std::vector<double>& vals, int max_bins) {
  auto ds = BinnedDataset::Build(ColumnMatrix(vals), max_bins);
  EXPECT_TRUE(ds.ok()) << ds.status().ToString();
  return ds.ok() ? ds->mapper(0) : BinMapper();
}

TEST(BinMapper, ExactModeUsesMidpointBoundaries) {
  const std::vector<double> vals = {5.0, 1.0, 2.0, 2.0, 3.0};
  BinMapper m = MapperOf(vals, 256);
  EXPECT_EQ(m.num_bins(), 4);  // distinct: 1, 2, 3, 5
  ASSERT_EQ(m.bounds().size(), 3u);
  EXPECT_DOUBLE_EQ(m.bounds()[0], 1.5);
  EXPECT_DOUBLE_EQ(m.bounds()[1], 2.5);
  EXPECT_DOUBLE_EQ(m.bounds()[2], 4.0);
  EXPECT_EQ(m.CodeOf(1.0), 0u);
  EXPECT_EQ(m.CodeOf(2.0), 1u);
  EXPECT_EQ(m.CodeOf(3.0), 2u);
  EXPECT_EQ(m.CodeOf(5.0), 3u);
  EXPECT_TRUE(std::isinf(m.BinUpperBound(3)));
}

TEST(BinMapper, CodeAndThresholdPartitionConsistently) {
  // v <= BinUpperBound(b)  <=>  CodeOf(v) <= b — the property that lets a
  // fitted tree store real thresholds while training partitions on codes.
  Rng rng(11);
  std::vector<double> vals(5000);
  for (double& v : vals) v = rng.Gaussian();
  BinMapper m = MapperOf(vals, 32);
  ASSERT_GT(m.num_bins(), 8);
  ASSERT_LE(m.num_bins(), 32);
  for (const double v : vals) {
    const uint32_t c = m.CodeOf(v);
    for (int b = 0; b < m.num_bins() - 1; ++b) {
      EXPECT_EQ(v <= m.BinUpperBound(b), c <= static_cast<uint32_t>(b))
          << "v=" << v << " bin=" << b;
    }
  }
}

TEST(BinMapper, QuantileModeBalancesCounts) {
  // 10000 uniform draws into 16 bins: every bin should hold a nontrivial
  // share (quantile boundaries, not uniform-width ones).
  Rng rng(7);
  std::vector<double> vals(10000);
  for (double& v : vals) v = rng.NextDouble() * rng.NextDouble();  // Skewed.
  BinMapper m = MapperOf(vals, 16);
  ASSERT_EQ(m.num_bins(), 16);
  std::vector<size_t> counts(16, 0);
  for (const double v : vals) ++counts[m.CodeOf(v)];
  for (size_t b = 0; b < counts.size(); ++b) {
    EXPECT_GT(counts[b], 10000u / 64) << "bin " << b;
    EXPECT_LT(counts[b], 10000u / 4) << "bin " << b;
  }
}

TEST(BinMapper, ConstantColumnGetsOneBin) {
  const std::vector<double> vals(100, 3.14);
  BinMapper m = MapperOf(vals, 256);
  EXPECT_EQ(m.num_bins(), 1);
  EXPECT_EQ(m.CodeOf(3.14), 0u);
  EXPECT_TRUE(std::isinf(m.BinUpperBound(0)));
}

// ------------------------------------------------------------ BinnedDataset

TEST(BinnedDataset, CodeWidthFollowsPerFeatureBinCount) {
  // Feature 0: 500 distinct values -> u16 when max_bins allows them all.
  // Feature 1: 5 distinct values -> u8 always.
  const size_t n = 500;
  Matrix x(n, 2);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = static_cast<double>(i);
    x(i, 1) = static_cast<double>(i % 5);
  }
  auto wide = BinnedDataset::Build(x, 1024);
  ASSERT_TRUE(wide.ok());
  EXPECT_FALSE(wide->narrow(0));
  EXPECT_EQ(wide->num_bins(0), 500);
  EXPECT_TRUE(wide->narrow(1));
  EXPECT_EQ(wide->num_bins(1), 5);

  auto capped = BinnedDataset::Build(x, 256);
  ASSERT_TRUE(capped.ok());
  EXPECT_TRUE(capped->narrow(0));
  EXPECT_LE(capped->num_bins(0), 256);
  EXPECT_GT(capped->num_bins(0), 128);

  // Codes round-trip through the mapper for both widths.
  for (size_t i = 0; i < n; i += 17) {
    EXPECT_EQ(wide->Code(0, i), wide->mapper(0).CodeOf(x(i, 0)));
    EXPECT_EQ(capped->Code(0, i), capped->mapper(0).CodeOf(x(i, 0)));
  }
  EXPECT_EQ(wide->TotalBins(), 505u);
  EXPECT_EQ(wide->BinOffset(1), 500u);
}

TEST(BinnedDataset, RejectsBadArguments) {
  EXPECT_FALSE(BinnedDataset::Build(Matrix(), 256).ok());
  EXPECT_FALSE(BinnedDataset::Build(Matrix(3, 2), 1).ok());
  EXPECT_FALSE(BinnedDataset::Build(Matrix(3, 2), 100000).ok());
}

TEST(BinnedDataset, RejectsNonFinite) {
  const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()};
  for (const double v : bad) {
    Matrix x(200, 3);
    for (size_t i = 0; i < x.rows(); ++i)
      for (size_t j = 0; j < x.cols(); ++j)
        x(i, j) = static_cast<double>((i * 7 + j) % 11);
    x(17, 1) = v;
    x(90, 1) = v;
    x(5, 2) = v;  // A later feature: the first bad feature is reported.
    auto built = BinnedDataset::Build(x, 256);
    ASSERT_FALSE(built.ok()) << v;
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(built.status().message().find("feature 1 at row 17"),
              std::string::npos)
        << built.status().message();
  }
}

/// One oracle case: a named column and the max_bins it is built under.
struct OracleCase {
  std::string name;
  std::vector<double> values;
  int max_bins;
};

/// `n` draws from `pool`, every pool value used at least once (n >=
/// pool.size()), in random order.
std::vector<double> DrawFrom(const std::vector<double>& pool, size_t n,
                             Rng* rng) {
  std::vector<double> out(pool);
  while (out.size() < n) out.push_back(pool[rng->NextInt(pool.size())]);
  for (size_t i = out.size(); i > 1; --i)
    std::swap(out[i - 1], out[rng->NextInt(i)]);
  return out;
}

std::vector<OracleCase> OracleCases(uint64_t seed) {
  Rng rng(seed);
  const size_t n = 3000;
  auto gaussians = [&](size_t k) {
    std::vector<double> v(k);
    for (double& x : v) x = rng.Gaussian();
    return v;
  };
  std::vector<OracleCase> cases;
  cases.push_back({"gaussian_quantile", gaussians(n), 256});
  cases.push_back({"gaussian_exact", DrawFrom(gaussians(100), n, &rng), 256});
  cases.push_back({"max_bins_distinct", DrawFrom(gaussians(256), n, &rng),
                   256});
  cases.push_back({"max_bins_plus_one", DrawFrom(gaussians(257), n, &rng),
                   256});
  {
    // Two values hold 70% of the rows and swallow several quantile ranks.
    std::vector<double> v = gaussians(n);
    for (double& x : v) {
      const uint64_t r = rng.NextInt(10);
      if (r < 5) x = 0.5;
      else if (r < 7) x = -1.25;
    }
    cases.push_back({"heavy_values", v, 64});
  }
  {
    std::vector<double> v(n);
    const double zeros[] = {-0.0, 0.0, 1.0, -1.0};
    for (double& x : v) x = zeros[rng.NextInt(4)];
    cases.push_back({"signed_zeros_exact", v, 256});
    for (size_t i = 0; i < n; i += 3) v[i] = rng.Gaussian();
    cases.push_back({"signed_zeros_quantile", v, 16});
  }
  {
    const double dmin = std::numeric_limits<double>::denorm_min();
    const double dmax = std::numeric_limits<double>::max();
    const std::vector<double> extremes = {
        dmin,   -dmin, 2 * dmin, 1e-310, -1e-310, 0.0,  -0.0,
        1e308,  -1e308, dmax,    -dmax,  1.0,     -1.0, 3 * dmin};
    cases.push_back({"extremes_exact", DrawFrom(extremes, n, &rng), 256});
    cases.push_back({"extremes_quantile", DrawFrom(extremes, n, &rng), 4});
  }
  {
    std::vector<double> v = gaussians(n);
    for (double& x : v) x = -std::exp(x);
    cases.push_back({"negative_only", v, 256});
  }
  cases.push_back({"constant", std::vector<double>(n, -2.5), 256});
  cases.push_back({"single_row", {rng.Gaussian()}, 256});
  cases.push_back({"u16_exact", gaussians(n), 1024});
  cases.push_back({"u16_quantile", DrawFrom(gaussians(2500), n, &rng), 1024});
  cases.push_back({"u16_max_exact", gaussians(n), 65536});
  cases.push_back({"u16_max_quantile", gaussians(70000), 65536});
  return cases;
}

/// Bitwise equality (memcmp, so -0.0 and +0.0 differ).
bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void ExpectMatchesOracle(const BinnedDataset& ds, size_t f,
                         const std::vector<double>& col,
                         const std::string& name) {
  const std::vector<double> bounds =
      oracle::BinBounds(col.data(), col.size(), ds.max_bins());
  EXPECT_TRUE(SameBits(ds.mapper(f).bounds(), bounds)) << name;
  const std::vector<uint32_t> codes =
      oracle::BinCodes(col.data(), col.size(), bounds);
  EXPECT_EQ(ds.narrow(f), bounds.size() < 256) << name;
  size_t mismatches = 0;
  for (size_t i = 0; i < col.size(); ++i)
    if (ds.Code(f, i) != codes[i]) ++mismatches;
  EXPECT_EQ(mismatches, 0u) << name;
}

TEST(BinnedDataset, MatchesSortOracleBoundForBoundAndCodeForCode) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (const OracleCase& c : OracleCases(seed)) {
      auto ds = BinnedDataset::Build(ColumnMatrix(c.values), c.max_bins);
      ASSERT_TRUE(ds.ok()) << c.name;
      ExpectMatchesOracle(*ds, 0, c.values, c.name);
    }
  }
}

TEST(BinnedDataset, IdenticalAtOneAndFourThreads) {
  // Every 3000-row, 256-bin oracle case side by side in one matrix: one
  // scratch serves all of them in turn at one thread, and chunks of them
  // at four. Both builds match the oracle and each other.
  ThreadCountGuard guard;
  std::vector<OracleCase> cases;
  for (OracleCase& c : OracleCases(4))
    if (c.values.size() == 3000 && c.max_bins == 256)
      cases.push_back(std::move(c));
  ASSERT_GE(cases.size(), 8u);
  Matrix x(3000, cases.size());
  for (size_t f = 0; f < cases.size(); ++f)
    for (size_t i = 0; i < x.rows(); ++i) x(i, f) = cases[f].values[i];
  SetGlobalThreads(1);
  auto one = BinnedDataset::Build(x, 256);
  SetGlobalThreads(4);
  auto four = BinnedDataset::Build(x, 256);
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(four.ok());
  EXPECT_EQ(one->TotalBins(), four->TotalBins());
  for (size_t f = 0; f < cases.size(); ++f) {
    ExpectMatchesOracle(*one, f, cases[f].values, cases[f].name);
    ExpectMatchesOracle(*four, f, cases[f].values, cases[f].name);
    EXPECT_TRUE(SameBits(one->mapper(f).bounds(), four->mapper(f).bounds()))
        << cases[f].name;
    ASSERT_TRUE(one->narrow(f) && four->narrow(f)) << cases[f].name;
    EXPECT_EQ(std::memcmp(one->Codes8(f), four->Codes8(f), x.rows()), 0)
        << cases[f].name;
    EXPECT_EQ(one->BinOffset(f), four->BinOffset(f));
  }
}

// ---------------------------------------------------- hist-vs-exact parity

TEST(HistLearner, IdenticalTreeOnSingleFeature) {
  // One feature: every node's value range is a contiguous run of the
  // global distinct values, so even recovered thresholds must match the
  // exact learner bit for bit, at every depth. The label is a hash bit of
  // the value — piecewise constant with many breakpoints, forcing a deep
  // tree.
  const size_t n = 600;
  Matrix x(n, 1);
  std::vector<double> y(n);
  Rng rng(3);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t v = rng.NextInt(30);
    x(i, 0) = static_cast<double>(v);
    y[i] = static_cast<double>((v * 2654435761ULL >> 7) & 1);
  }
  auto fit = FitRegressionTree(x, y, ExactConfig(6, 2));
  ASSERT_TRUE(fit.ok());
  const Tree& exact = *fit;
  auto binned = BinnedDataset::Build(x, 256);
  ASSERT_TRUE(binned.ok());
  const Tree hist = FitRegressionTreeHist(*binned, y, HistConfig(6, 2));
  ASSERT_GT(exact.nodes.size(), 5u);
  ExpectIdenticalTrees(exact, hist, /*compare_thresholds=*/true);
}

TEST(HistLearner, IdenticalStructureOnMultiFeatureIntegerData) {
  // Across features, interior nodes can see gaps in a feature's value set,
  // so recovered thresholds may sit at different (equivalent) midpoints —
  // but the structure, covers, leaf values, and every training-row
  // prediction must be identical when sums are exact.
  Dataset ds = MakeIntegerDataset(800, 5, 17, 12);
  auto fit = FitRegressionTree(ds.x(), ds.y(), ExactConfig(6, 5));
  ASSERT_TRUE(fit.ok());
  const Tree& exact = *fit;
  auto binned = BinnedDataset::Build(ds.x(), 256);
  ASSERT_TRUE(binned.ok());
  const Tree hist =
      FitRegressionTreeHist(*binned, ds.y(), HistConfig(6, 5));
  ASSERT_GT(exact.nodes.size(), 10u);
  ExpectIdenticalTrees(exact, hist, /*compare_thresholds=*/false);
  for (size_t i = 0; i < ds.n(); ++i) {
    EXPECT_EQ(oracle::Predict(exact, ds.x().RowPtr(i)),
              oracle::Predict(hist, ds.x().RowPtr(i)))
        << "row " << i;
  }
}

TEST(HistLearner, HessianWeightedParityWithinEpsilon) {
  // With real-valued hessian weights, sums accumulate in different orders
  // (sorted rows vs bins), so parity is within-epsilon rather than exact.
  Dataset ds = MakeIntegerDataset(500, 3, 23, 10);
  std::vector<double> hess(ds.n());
  Rng rng(5);
  for (double& h : hess) h = 0.5 + rng.NextDouble();
  auto fit = FitRegressionTree(ds.x(), ds.y(), ExactConfig(4, 5), &hess);
  ASSERT_TRUE(fit.ok());
  const Tree& exact = *fit;
  auto binned = BinnedDataset::Build(ds.x(), 256);
  ASSERT_TRUE(binned.ok());
  const Tree hist =
      FitRegressionTreeHist(*binned, ds.y(), HistConfig(4, 5), &hess);
  ASSERT_EQ(exact.nodes.size(), hist.nodes.size());
  for (size_t i = 0; i < ds.n(); ++i) {
    EXPECT_NEAR(oracle::Predict(exact, ds.x().RowPtr(i)),
                oracle::Predict(hist, ds.x().RowPtr(i)), 1e-9);
  }
}

TEST(HistLearner, SubtractionMatchesDirectAccumulation) {
  // Integer sums subtract exactly, so the parent − sibling histogram path
  // must give bitwise the same tree as re-accumulating both children.
  Dataset ds = MakeIntegerDataset(1000, 4, 29, 16);
  auto binned = BinnedDataset::Build(ds.x(), 256);
  ASSERT_TRUE(binned.ok());
  TreeConfig with_sub = HistConfig(7, 2);
  TreeConfig no_sub = HistConfig(7, 2);
  no_sub.train.hist_subtraction = false;
  const Tree a = FitRegressionTreeHist(*binned, ds.y(), with_sub);
  const Tree b = FitRegressionTreeHist(*binned, ds.y(), no_sub);
  ASSERT_GT(a.nodes.size(), 15u);
  ExpectIdenticalTrees(a, b, /*compare_thresholds=*/true);
}

TEST(HistLearner, AccuracyWithinEpsilonOfExactOnRealData) {
  Dataset ds = MakeLoanDataset(3000);
  Rng rng(9);
  auto [train, test] = ds.Split(0.7, &rng);
  GbdtOptions exact_opts{.num_rounds = 30};
  exact_opts.tree.train.method = TrainMethod::kExact;
  GbdtOptions hist_opts{.num_rounds = 30};
  hist_opts.tree.train.method = TrainMethod::kHist;
  auto exact = GradientBoostedTrees::Fit(train, exact_opts);
  auto hist = GradientBoostedTrees::Fit(train, hist_opts);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(hist.ok());
  const double auc_exact = EvaluateAuc(*exact, test);
  const double auc_hist = EvaluateAuc(*hist, test);
  EXPECT_GT(auc_exact, 0.8);
  EXPECT_GT(auc_hist, 0.8);
  EXPECT_NEAR(auc_exact, auc_hist, 0.02);
}

// ------------------------------------------------ determinism + threading

TEST(HistLearner, BitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Dataset ds = MakeGaussianDataset(2000, {.seed = 31, .dims = 8, .rho = 0.3});
  GbdtOptions opts{.num_rounds = 15};
  opts.tree.train.method = TrainMethod::kHist;

  SetGlobalThreads(1);
  auto serial = GradientBoostedTrees::Fit(ds, opts);
  ASSERT_TRUE(serial.ok());
  SetGlobalThreads(4);
  auto parallel = GradientBoostedTrees::Fit(ds, opts);
  ASSERT_TRUE(parallel.ok());

  ASSERT_EQ(serial->trees().size(), parallel->trees().size());
  for (size_t t = 0; t < serial->trees().size(); ++t)
    ExpectIdenticalTrees(serial->trees()[t], parallel->trees()[t],
                         /*compare_thresholds=*/true);
}

TEST(RandomForest, BitIdenticalAcrossThreadCounts) {
  ThreadCountGuard guard;
  Dataset ds = MakeLoanDataset(1200);
  RandomForestOptions opts{.num_trees = 12};

  SetGlobalThreads(1);
  auto serial = RandomForest::Fit(ds, opts);
  ASSERT_TRUE(serial.ok());
  SetGlobalThreads(4);
  auto parallel = RandomForest::Fit(ds, opts);
  ASSERT_TRUE(parallel.ok());

  ASSERT_EQ(serial->trees().size(), parallel->trees().size());
  for (size_t t = 0; t < serial->trees().size(); ++t)
    ExpectIdenticalTrees(serial->trees()[t], parallel->trees()[t],
                         /*compare_thresholds=*/true);
  for (size_t i = 0; i < 20; ++i)
    EXPECT_EQ(serial->Predict(ds.row(i)), parallel->Predict(ds.row(i)));
}

TEST(RandomForest, ExactModeAlsoThreadCountInvariant) {
  // The per-tree ChunkSeed streams decouple bagging from scheduling for
  // both methods, not just hist.
  ThreadCountGuard guard;
  Dataset ds = MakeLoanDataset(800);
  RandomForestOptions opts{.num_trees = 8};
  opts.tree.train.method = TrainMethod::kExact;

  SetGlobalThreads(1);
  auto serial = RandomForest::Fit(ds, opts);
  SetGlobalThreads(3);
  auto parallel = RandomForest::Fit(ds, opts);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  for (size_t t = 0; t < serial->trees().size(); ++t)
    ExpectIdenticalTrees(serial->trees()[t], parallel->trees()[t],
                         /*compare_thresholds=*/true);
}

// --------------------------------------------------------- degenerate data

TEST(HistLearner, ConstantColumnNeverSplits) {
  const size_t n = 400;
  Matrix x(n, 2);
  std::vector<double> y(n);
  Rng rng(41);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = 7.0;  // Constant.
    x(i, 1) = static_cast<double>(rng.NextInt(10));
    y[i] = x(i, 1) >= 5.0 ? 1.0 : 0.0;
  }
  auto binned = BinnedDataset::Build(x, 256);
  ASSERT_TRUE(binned.ok());
  const Tree tree = FitRegressionTreeHist(*binned, y, HistConfig(5, 5));
  ASSERT_GT(tree.nodes.size(), 1u);
  for (const TreeNode& node : tree.nodes)
    if (!node.is_leaf()) EXPECT_EQ(node.feature, 1);
}

TEST(HistLearner, AllConstantFeaturesYieldSingleLeaf) {
  Matrix x(50, 3, 1.0);
  std::vector<double> y(50, 0.0);
  for (size_t i = 0; i < 25; ++i) y[i] = 1.0;
  auto binned = BinnedDataset::Build(x, 256);
  ASSERT_TRUE(binned.ok());
  const Tree tree = FitRegressionTreeHist(*binned, y, HistConfig(5, 5));
  ASSERT_EQ(tree.nodes.size(), 1u);
  EXPECT_TRUE(tree.nodes[0].is_leaf());
  EXPECT_DOUBLE_EQ(tree.nodes[0].value, 0.5);
  EXPECT_DOUBLE_EQ(tree.nodes[0].cover, 50.0);
}

TEST(HistLearner, RespectsDepthAndLeafLimits) {
  Dataset ds = MakeLoanDataset(1500);
  auto binned = BinnedDataset::Build(ds.x(), 64);
  ASSERT_TRUE(binned.ok());
  const Tree tree = FitRegressionTreeHist(*binned, ds.y(), HistConfig(3, 40));
  EXPECT_LE(tree.MaxDepth(), 3);
  for (const TreeNode& node : tree.nodes)
    if (node.is_leaf()) EXPECT_GE(node.cover, 40.0);
}

TEST(HistLearner, WideU16FeaturesTrainCorrectly) {
  // 1000 distinct values with max_bins 2048 forces the u16 code path end
  // to end (binning, histogram accumulation, partitioning, thresholds).
  const size_t n = 2000;
  Matrix x(n, 2);
  std::vector<double> y(n);
  Rng rng(47);
  for (size_t i = 0; i < n; ++i) {
    x(i, 0) = static_cast<double>(rng.NextInt(1000));
    x(i, 1) = rng.Gaussian();
    y[i] = x(i, 0) >= 500.0 ? 1.0 : 0.0;
  }
  auto binned = BinnedDataset::Build(x, 2048);
  ASSERT_TRUE(binned.ok());
  EXPECT_FALSE(binned->narrow(0));
  const Tree tree = FitRegressionTreeHist(*binned, y, HistConfig(4, 10));
  ASSERT_FALSE(tree.nodes[0].is_leaf());
  // The label rule is recoverable: training error should be near zero.
  size_t errors = 0;
  for (size_t i = 0; i < n; ++i)
    if ((oracle::Predict(tree, x.RowPtr(i)) >= 0.5) != (y[i] >= 0.5)) ++errors;
  EXPECT_LT(static_cast<double>(errors) / static_cast<double>(n), 0.02);
}

// ------------------------------------------------------- GBDT integration

TEST(HistLearner, LeafOfRowMatchesTreeTraversal) {
  // The GBDT margin update trusts leaf_of_row instead of re-walking the
  // tree: the two must agree on every training row.
  Dataset ds = MakeLoanDataset(1000);
  auto binned = BinnedDataset::Build(ds.x(), 256);
  ASSERT_TRUE(binned.ok());
  std::vector<int32_t> leaf_of_row;
  const Tree tree = FitRegressionTreeHist(*binned, ds.y(), HistConfig(6, 5),
                                          nullptr, nullptr, nullptr,
                                          &leaf_of_row);
  ASSERT_EQ(leaf_of_row.size(), ds.n());
  for (size_t i = 0; i < ds.n(); ++i) {
    ASSERT_GE(leaf_of_row[i], 0);
    EXPECT_EQ(leaf_of_row[i], oracle::LeafIndex(tree, ds.x().RowPtr(i)))
        << "row " << i;
  }
}

TEST(HistLearner, LeafOfRowMarksRowsOutsideSubset) {
  Dataset ds = MakeLoanDataset(300);
  auto binned = BinnedDataset::Build(ds.x(), 256);
  ASSERT_TRUE(binned.ok());
  std::vector<size_t> subset;
  for (size_t i = 0; i < ds.n(); i += 2) subset.push_back(i);
  std::vector<int32_t> leaf_of_row;
  const Tree tree = FitRegressionTreeHist(*binned, ds.y(), HistConfig(4, 5),
                                          nullptr, &subset, nullptr,
                                          &leaf_of_row);
  for (size_t i = 0; i < ds.n(); ++i) {
    if (i % 2 == 0) {
      EXPECT_GE(leaf_of_row[i], 0);
    } else {
      EXPECT_EQ(leaf_of_row[i], -1);
    }
  }
}

TEST(Gbdt, SubsampledHistTrainingStillLearns) {
  // Subsampled rounds route margin updates through the compiled flat
  // ensemble; the fit must stay deterministic and accurate.
  Dataset ds = MakeLoanDataset(2000);
  Rng rng(13);
  auto [train, test] = ds.Split(0.7, &rng);
  GbdtOptions opts{.num_rounds = 40, .subsample = 0.7};
  auto a = GradientBoostedTrees::Fit(train, opts);
  auto b = GradientBoostedTrees::Fit(train, opts);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(EvaluateAuc(*a, test), 0.8);
  EXPECT_EQ(a->Predict(test.row(0)), b->Predict(test.row(0)));
}

TEST(DecisionTree, HistDefaultMatchesExactOnSmallData) {
  // DecisionTree::Fit carries the knob too; on integer data the two
  // methods agree exactly (modulo interior thresholds).
  Dataset ds = MakeIntegerDataset(500, 3, 53, 8);
  TreeConfig exact_cfg = ExactConfig(5, 5);
  TreeConfig hist_cfg = HistConfig(5, 5);
  auto exact = DecisionTree::Fit(ds, exact_cfg);
  auto hist = DecisionTree::Fit(ds, hist_cfg);
  ASSERT_TRUE(exact.ok());
  ASSERT_TRUE(hist.ok());
  for (size_t i = 0; i < ds.n(); ++i)
    EXPECT_EQ(exact->Predict(ds.row(i)), hist->Predict(ds.row(i)));
}

/// Fits all three tree-model kinds on `ds` and expects each to refuse it
/// with InvalidArgument instead of training (or silently switching
/// learner).
void ExpectEveryTreeFitRejects(const Dataset& ds, const TreeConfig& tree) {
  auto dt = DecisionTree::Fit(ds, tree);
  auto rf = RandomForest::Fit(ds, {.num_trees = 3, .tree = tree});
  auto gb = GradientBoostedTrees::Fit(ds, {.num_rounds = 3, .tree = tree});
  ASSERT_FALSE(dt.ok());
  ASSERT_FALSE(rf.ok());
  ASSERT_FALSE(gb.ok());
  EXPECT_EQ(dt.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(rf.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(gb.status().code(), StatusCode::kInvalidArgument);
}

TEST(TrainingInput, NanFeatureIsRejected) {
  Dataset ds = MakeIntegerDataset(200, 3, 61);
  ds.mutable_x()(17, 1) = std::numeric_limits<double>::quiet_NaN();
  ExpectEveryTreeFitRejects(ds, HistConfig(4, 5));
  ExpectEveryTreeFitRejects(ds, ExactConfig(4, 5));
}

TEST(TrainingInput, InfiniteTargetIsRejected) {
  Dataset ds = MakeIntegerDataset(200, 3, 62);
  ds.mutable_y()[5] = std::numeric_limits<double>::infinity();
  ExpectEveryTreeFitRejects(ds, HistConfig(4, 5));
  ExpectEveryTreeFitRejects(ds, ExactConfig(4, 5));
}

TEST(TrainingInput, CsvNanCellIsRejectedAtFit) {
  // strtod parses "nan", so the loader keeps the column numeric and hands
  // the NaN on; the fit is where it has to stop.
  const std::string path = ::testing::TempDir() + "xai_train_nan.csv";
  {
    std::ofstream out(path);
    out << "a,b,target\n";
    for (int i = 0; i < 40; ++i)
      out << i << "," << (i == 7 ? "nan" : std::to_string(i % 5)) << ","
          << (i % 2) << "\n";
  }
  auto ds = ReadCsv(path);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  ASSERT_TRUE(std::isnan(ds->x()(7, 1)));
  ExpectEveryTreeFitRejects(*ds, HistConfig(3, 2));
}

TEST(TrainingInput, DirectFitRegressionTreeRejectsNonFinite) {
  // Called directly, without a model Fit's input check in front: the hist
  // branch returns the bin build's error instead of falling back to the
  // exact learner, and the exact branch refuses before it sorts.
  Dataset nan_x = MakeIntegerDataset(200, 3, 64);
  nan_x.mutable_x()(17, 1) = std::numeric_limits<double>::quiet_NaN();
  Dataset inf_y = MakeIntegerDataset(200, 3, 65);
  inf_y.mutable_y()[5] = -std::numeric_limits<double>::infinity();
  for (const TreeConfig& cfg : {HistConfig(4, 5), ExactConfig(4, 5)}) {
    auto a = FitRegressionTree(nan_x.x(), nan_x.y(), cfg);
    ASSERT_FALSE(a.ok());
    EXPECT_EQ(a.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(a.status().ToString().find("feature 1"), std::string::npos)
        << a.status().ToString();
  }
  auto exact = FitRegressionTree(inf_y.x(), inf_y.y(), ExactConfig(4, 5));
  ASSERT_FALSE(exact.ok());
  EXPECT_EQ(exact.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(exact.status().ToString().find("target at row 5"),
            std::string::npos)
      << exact.status().ToString();
}

TEST(TrainingInput, MaxBinsOutOfRangeIsRejectedNotFallenBack) {
  // An invalid max_bins fails the fit instead of switching it to the exact
  // learner.
  Dataset ds = MakeIntegerDataset(200, 3, 63);
  ExpectEveryTreeFitRejects(ds, HistConfig(4, 5, /*max_bins=*/1));
  ExpectEveryTreeFitRejects(ds, HistConfig(4, 5, /*max_bins=*/65537));
  // max_bins only matters to the histogram learner.
  TreeConfig exact = ExactConfig(4, 5);
  exact.train.max_bins = 1;
  EXPECT_TRUE(DecisionTree::Fit(ds, exact).ok());
}

}  // namespace
}  // namespace xai
