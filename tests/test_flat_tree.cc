// Flat-vs-node equivalence suite for the compiled FlatEnsemble runtime
// (label: flat, runs in the TSan CI job).
//
// The contract under test: every prediction and every TreeSHAP value
// produced off the flat SoA arrays is the SAME DOUBLE as the node-object
// reference walks in tree_oracle.h — for degenerate single-leaf trees, rows
// sitting exactly on a split threshold, deep trees, any thread count, and
// across a serialize -> load -> recompile round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "feature/tree_shap.h"
#include "math/matrix.h"
#include "model/decision_tree.h"
#include "model/flat_tree.h"
#include "model/gbdt.h"
#include "model/serialize.h"
#include "tree_oracle.h"

namespace xai {
namespace {

/// Node-based reference margin: base + lr * sum_t tree_t, accumulated in
/// tree order exactly like the flat path claims to.
std::vector<double> NodeMarginBatch(const GradientBoostedTrees& gbdt,
                                    const Matrix& x) {
  std::vector<double> out(x.rows(), gbdt.base_score());
  for (const Tree& t : gbdt.trees())
    oracle::AccumulateBatch(t, x, gbdt.learning_rate(), &out);
  return out;
}

TEST(FlatTree, GbdtFlatMatchesNodeReferenceExactly) {
  Dataset ds = MakeLoanDataset(600);
  auto gbdt = GradientBoostedTrees::Fit(
      ds, {.num_rounds = 40, .tree = {.max_depth = 5, .min_samples_leaf = 3}});
  ASSERT_TRUE(gbdt.ok());
  const std::vector<double> flat = gbdt->PredictMarginBatch(ds.x());
  const std::vector<double> node = NodeMarginBatch(*gbdt, ds.x());
  for (size_t i = 0; i < ds.n(); ++i) {
    EXPECT_EQ(flat[i], node[i]) << "row " << i;
    // Scalar path routes through the same arrays.
    EXPECT_EQ(gbdt->PredictMargin(ds.row(i)), node[i]) << "row " << i;
  }
}

TEST(FlatTree, ForestAndDtreeFlatMatchNodeReferenceExactly) {
  Dataset ds = MakeCreditDataset(400);
  auto forest = RandomForest::Fit(ds, {.num_trees = 20});
  ASSERT_TRUE(forest.ok());
  auto dtree = DecisionTree::Fit(ds, {.max_depth = 7, .min_samples_leaf = 2});
  ASSERT_TRUE(dtree.ok());
  const std::vector<double> forest_flat = forest->PredictBatch(ds.x());
  const std::vector<double> dtree_flat = dtree->PredictBatch(ds.x());
  for (size_t i = 0; i < ds.n(); ++i) {
    double node_sum = 0.0;
    for (const Tree& t : forest->trees())
      node_sum += oracle::Predict(t, ds.row(i));
    EXPECT_EQ(forest_flat[i],
              node_sum / static_cast<double>(forest->trees().size()));
    EXPECT_EQ(dtree_flat[i], oracle::Predict(dtree->tree(), ds.row(i)));
  }
}

TEST(FlatTree, BoundaryRowsExactlyOnThresholdRouteIdentically) {
  // x == threshold must go left in both runtimes. Probe every internal
  // node of a fitted ensemble by planting its threshold into a real row.
  Dataset ds = MakeLoanDataset(500);
  auto gbdt = GradientBoostedTrees::Fit(
      ds, {.num_rounds = 10, .tree = {.max_depth = 4, .min_samples_leaf = 5}});
  ASSERT_TRUE(gbdt.ok());
  Rng rng(123);
  std::vector<std::vector<double>> probes;
  for (const Tree& t : gbdt->trees())
    for (const TreeNode& n : t.nodes) {
      if (n.is_leaf()) continue;
      std::vector<double> row =
          ds.row(static_cast<size_t>(rng.NextInt(ds.n())));
      row[static_cast<size_t>(n.feature)] = n.threshold;
      probes.push_back(std::move(row));
    }
  ASSERT_FALSE(probes.empty());
  Matrix m(probes.size(), ds.d());
  for (size_t i = 0; i < probes.size(); ++i) m.SetRow(i, probes[i]);
  const std::vector<double> flat = gbdt->PredictMarginBatch(m);
  const std::vector<double> node = NodeMarginBatch(*gbdt, m);
  for (size_t i = 0; i < probes.size(); ++i)
    EXPECT_EQ(flat[i], node[i]) << "probe " << i;
}

TEST(FlatTree, HandBuiltBoundarySplitGoesLeft) {
  Tree tree;
  tree.nodes.resize(3);
  tree.nodes[0] = {.feature = 0, .threshold = 1.5, .left = 1, .right = 2,
                   .value = 0.0, .cover = 10.0};
  tree.nodes[1] = {.feature = -1, .threshold = 0.0, .left = -1, .right = -1,
                   .value = 10.0, .cover = 6.0};
  tree.nodes[2] = {.feature = -1, .threshold = 0.0, .left = -1, .right = -1,
                   .value = 20.0, .cover = 4.0};
  const FlatEnsemble flat = FlatEnsemble::Compile(tree);
  const double on_boundary[] = {1.5};
  const double above[] = {1.5000000000000002};
  EXPECT_EQ(flat.PredictTree(0, on_boundary), 10.0);
  EXPECT_EQ(flat.PredictTree(0, above), 20.0);
  EXPECT_EQ(flat.depth(0), 1);
  EXPECT_EQ(flat.expected_value(0), tree.ExpectedValue());
}

TEST(FlatTree, SingleLeafDegenerateTree) {
  Tree leaf_only;
  leaf_only.nodes.resize(1);
  leaf_only.nodes[0] = {.feature = -1, .threshold = 0.0, .left = -1,
                        .right = -1, .value = 3.25, .cover = 7.0};
  const FlatEnsemble flat = FlatEnsemble::Compile(leaf_only);
  ASSERT_EQ(flat.num_trees(), 1u);
  EXPECT_EQ(flat.depth(0), 0);
  EXPECT_TRUE(flat.is_leaf(flat.root(0)));
  const double x[] = {0.0, 1.0};
  EXPECT_EQ(flat.PredictTree(0, x), 3.25);
  EXPECT_EQ(flat.expected_value(0), 3.25);
  std::vector<double> out(3, 1.0);
  Matrix rows(3, 2);
  flat.AccumulateTree(0, rows, 2.0, &out);
  for (double v : out) EXPECT_EQ(v, 1.0 + 2.0 * 3.25);
  // TreeSHAP of a constant tree: no feature gets credit.
  std::vector<double> phi(2, 0.0);
  FlatTreeShapValues(flat, 0, x, &phi);
  EXPECT_EQ(phi[0], 0.0);
  EXPECT_EQ(phi[1], 0.0);
}

TEST(FlatTree, DeepTreeEquivalenceOnRandomRows) {
  Dataset ds = MakeGaussianDataset(1500, {.seed = 9, .dims = 6});
  auto dtree =
      DecisionTree::Fit(ds, {.max_depth = 14, .min_samples_leaf = 1});
  ASSERT_TRUE(dtree.ok());
  ASSERT_GE(dtree->tree().MaxDepth(), 10);
  Rng rng(77);
  Matrix probes(500, ds.d());
  for (size_t i = 0; i < probes.rows(); ++i) {
    std::vector<double> row = ds.row(static_cast<size_t>(rng.NextInt(ds.n())));
    for (double& v : row) v += rng.Gaussian(0.0, 0.3);
    probes.SetRow(i, row);
  }
  const std::vector<double> flat = dtree->PredictBatch(probes);
  for (size_t i = 0; i < probes.rows(); ++i)
    EXPECT_EQ(flat[i], oracle::Predict(dtree->tree(), probes.Row(i)))
        << "row " << i;
}

TEST(FlatTree, ExpectedValuePrecomputedBitExact) {
  Dataset ds = MakeLoanDataset(400);
  auto gbdt = GradientBoostedTrees::Fit(ds, {.num_rounds = 15});
  ASSERT_TRUE(gbdt.ok());
  const FlatEnsemble& flat = gbdt->flat();
  ASSERT_EQ(flat.num_trees(), gbdt->trees().size());
  for (size_t t = 0; t < flat.num_trees(); ++t)
    EXPECT_EQ(flat.expected_value(t), gbdt->trees()[t].ExpectedValue());
}

TEST(FlatTree, FlatTreeShapMatchesNodeWalkerBitExact) {
  Dataset ds = MakeLoanDataset(500);
  auto gbdt = GradientBoostedTrees::Fit(
      ds, {.num_rounds = 25, .tree = {.max_depth = 4, .min_samples_leaf = 4}});
  ASSERT_TRUE(gbdt.ok());
  const FlatEnsemble& flat = gbdt->flat();
  for (size_t i = 0; i < 40; ++i) {
    const std::vector<double> x = ds.row(i);
    for (size_t t = 0; t < flat.num_trees(); ++t) {
      std::vector<double> node_phi(ds.d(), 0.0);
      std::vector<double> flat_phi(ds.d(), 0.0);
      oracle::TreeShapValues(gbdt->trees()[t], x, &node_phi);
      FlatTreeShapValues(flat, t, x.data(), &flat_phi);
      for (size_t j = 0; j < ds.d(); ++j)
        EXPECT_EQ(flat_phi[j], node_phi[j]) << "row " << i << " tree " << t;
    }
  }
  // The explainer facade (flat path) against the node-based ensemble
  // reference, plus local accuracy against the flat margin.
  TreeShapExplainer explainer(*gbdt, ds.schema());
  for (size_t i = 0; i < 40; ++i) {
    const std::vector<double> x = ds.row(i);
    auto attr = explainer.Explain(x);
    ASSERT_TRUE(attr.ok());
    const std::vector<double> reference = oracle::EnsembleTreeShap(
        gbdt->trees(), gbdt->learning_rate(), ds.d(), x);
    double sum = 0.0;
    for (size_t j = 0; j < ds.d(); ++j) {
      EXPECT_EQ(attr->values[j], reference[j]) << "row " << i;
      sum += attr->values[j];
    }
    EXPECT_NEAR(sum, gbdt->PredictMargin(x) - attr->base_value, 1e-9);
  }
}

TEST(FlatTree, ExplainBatchBitIdenticalAtEveryThreadCount) {
  Dataset ds = MakeLoanDataset(512);
  auto gbdt = GradientBoostedTrees::Fit(ds, {.num_rounds = 12});
  ASSERT_TRUE(gbdt.ok());
  TreeShapExplainer explainer(*gbdt, ds.schema());
  const size_t n = 256;
  Matrix rows(n, ds.d());
  for (size_t i = 0; i < n; ++i) rows.SetRow(i, ds.row(i));

  // Serial per-row reference.
  std::vector<std::vector<double>> serial(n);
  for (size_t i = 0; i < n; ++i) {
    auto attr = explainer.Explain(ds.row(i));
    ASSERT_TRUE(attr.ok());
    serial[i] = attr->values;
  }

  // The serving idiom: fixed row chunks dispatched over the global pool,
  // one ExplainBatch per chunk. Chunk boundaries depend only on n, so any
  // thread count must reproduce the serial doubles exactly.
  constexpr size_t kChunk = 64;
  for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
    SetGlobalThreads(threads);
    std::vector<std::vector<double>> parallel(n);
    const size_t num_chunks = (n + kChunk - 1) / kChunk;
    GlobalPool().ParallelFor(0, num_chunks, 1, [&](size_t c) {
      const size_t begin = c * kChunk;
      const size_t end = std::min(begin + kChunk, n);
      Matrix block(end - begin, ds.d());
      for (size_t i = begin; i < end; ++i) block.SetRow(i - begin, rows.Row(i));
      auto attrs = explainer.ExplainBatch(block);
      ASSERT_TRUE(attrs.ok());
      for (size_t i = begin; i < end; ++i)
        parallel[i] = (*attrs)[i - begin].values;
    });
    for (size_t i = 0; i < n; ++i)
      for (size_t j = 0; j < ds.d(); ++j)
        EXPECT_EQ(parallel[i][j], serial[i][j])
            << "threads " << threads << " row " << i;
  }
  SetGlobalThreads(0);  // Restore env/hardware default.
}

TEST(FlatTree, SerializeLoadCompileRoundTrip) {
  Dataset ds = MakeLoanDataset(500);
  auto gbdt = GradientBoostedTrees::Fit(ds, {.num_rounds = 20});
  ASSERT_TRUE(gbdt.ok());
  const std::string path = "/tmp/xai_flat_roundtrip_gbdt.txt";
  ASSERT_TRUE(SaveModel(*gbdt, path).ok());
  auto loaded = LoadGbdt(path);
  ASSERT_TRUE(loaded.ok());
  // The loaded model recompiled its own FlatEnsemble; every flat
  // prediction and explanation must match the original's.
  EXPECT_EQ(loaded->flat().num_trees(), gbdt->flat().num_trees());
  EXPECT_EQ(loaded->flat().num_nodes(), gbdt->flat().num_nodes());
  const std::vector<double> a = gbdt->PredictMarginBatch(ds.x());
  const std::vector<double> b = loaded->PredictMarginBatch(ds.x());
  for (size_t i = 0; i < ds.n(); ++i) EXPECT_EQ(a[i], b[i]);
  TreeShapExplainer e1(*gbdt, ds.schema());
  TreeShapExplainer e2(*loaded, ds.schema());
  Matrix rows(30, ds.d());
  for (size_t i = 0; i < 30; ++i) rows.SetRow(i, ds.row(i));
  auto a1 = e1.ExplainBatch(rows);
  auto a2 = e2.ExplainBatch(rows);
  ASSERT_TRUE(a1.ok() && a2.ok());
  for (size_t i = 0; i < 30; ++i) {
    EXPECT_EQ((*a1)[i].base_value, (*a2)[i].base_value);
    EXPECT_EQ((*a1)[i].prediction, (*a2)[i].prediction);
    for (size_t j = 0; j < ds.d(); ++j)
      EXPECT_EQ((*a1)[i].values[j], (*a2)[i].values[j]);
  }
  std::remove(path.c_str());
}

TEST(FlatTree, ForestAndDtreeSerializationRoundTrip) {
  Dataset ds = MakeCreditDataset(300);
  auto forest = RandomForest::Fit(ds, {.num_trees = 10});
  ASSERT_TRUE(forest.ok());
  auto dtree = DecisionTree::Fit(ds);
  ASSERT_TRUE(dtree.ok());

  const std::string fpath = "/tmp/xai_flat_roundtrip_forest.txt";
  ASSERT_TRUE(SaveModel(*forest, fpath).ok());
  EXPECT_EQ(*PeekModelType(fpath), "forest");
  auto floaded = LoadRandomForest(fpath);
  ASSERT_TRUE(floaded.ok());
  const std::vector<double> fa = forest->PredictBatch(ds.x());
  const std::vector<double> fb = floaded->PredictBatch(ds.x());
  for (size_t i = 0; i < ds.n(); ++i) EXPECT_EQ(fa[i], fb[i]);

  const std::string dpath = "/tmp/xai_flat_roundtrip_dtree.txt";
  ASSERT_TRUE(SaveModel(*dtree, dpath).ok());
  EXPECT_EQ(*PeekModelType(dpath), "dtree");
  auto dloaded = LoadDecisionTree(dpath);
  ASSERT_TRUE(dloaded.ok());
  const std::vector<double> da = dtree->PredictBatch(ds.x());
  const std::vector<double> db = dloaded->PredictBatch(ds.x());
  for (size_t i = 0; i < ds.n(); ++i) EXPECT_EQ(da[i], db[i]);

  // Cross-type load is rejected.
  EXPECT_FALSE(LoadRandomForest(dpath).ok());
  EXPECT_FALSE(LoadDecisionTree(fpath).ok());
  std::remove(fpath.c_str());
  std::remove(dpath.c_str());
}

/// Appends, in pre-order, a subtree whose first child always grows to
/// `levels_left` more levels and whose second child grows further on a
/// coin flip, so deep paths keep meeting internal siblings. Level k splits
/// on `feature_at(k)`. Leaf covers are drawn and every internal cover is
/// the sum of its children's, as a fit produces. Returns the node's cover.
template <typename FeatureAt>
double Grow(Tree* tree, int level, int levels_left, Rng* rng,
            const FeatureAt& feature_at) {
  const size_t self = tree->nodes.size();
  tree->nodes.emplace_back();
  if (levels_left == 0) {
    tree->nodes[self].value = rng->Uniform(-1.0, 1.0);
    tree->nodes[self].cover = static_cast<double>(1 + rng->NextInt(9));
    return tree->nodes[self].cover;
  }
  tree->nodes[self].feature = feature_at(level);
  tree->nodes[self].threshold = rng->Uniform(-1.0, 1.0);
  const bool deep_left = rng->NextInt(2) == 0;
  const int sibling_levels = rng->NextInt(2) == 0 ? levels_left - 1 : 0;
  tree->nodes[self].left = static_cast<int>(tree->nodes.size());
  double cover = Grow(tree, level + 1,
                      deep_left ? levels_left - 1 : sibling_levels, rng,
                      feature_at);
  tree->nodes[self].right = static_cast<int>(tree->nodes.size());
  cover += Grow(tree, level + 1,
                deep_left ? sibling_levels : levels_left - 1, rng,
                feature_at);
  tree->nodes[self].cover = cover;
  return cover;
}

TEST(FlatTree, PathArenaReusedAcrossDeepShallowAndLeafTrees) {
  // One TreeSHAP path arena serves every tree and row of an explain call.
  // A depth-14 tree that splits on one feature at every level (Unwind at
  // every depth), a depth-14 tree over distinct features (the longest
  // path the arena holds), then a depth-1 and a single-leaf tree that
  // reuse the arena the deep trees left dirty.
  constexpr size_t kDims = 16;
  Dataset ds = MakeGaussianDataset(64, {.seed = 21, .dims = kDims});
  Rng rng(5);
  std::vector<Tree> trees(4);
  Grow(&trees[0], 0, 14, &rng, [](int) { return 0; });
  Grow(&trees[1], 0, 14, &rng, [](int level) { return level; });
  Grow(&trees[2], 0, 1, &rng, [](int) { return 3; });
  Grow(&trees[3], 0, 0, &rng, [](int) { return 0; });
  ASSERT_EQ(trees[0].MaxDepth(), 14);
  ASSERT_EQ(trees[1].MaxDepth(), 14);
  auto gbdt = GradientBoostedTrees::FromParts(trees, 0.25, 0.5,
                                              GbdtLoss::kSquared, kDims);
  ASSERT_TRUE(gbdt.ok()) << gbdt.status().ToString();
  const FlatEnsemble& flat = gbdt->flat();
  ASSERT_EQ(flat.depth(0), 14);
  ASSERT_EQ(flat.depth(3), 0);

  for (size_t i = 0; i < ds.n(); ++i) {
    const std::vector<double> x = ds.row(i);
    for (size_t t = 0; t < trees.size(); ++t) {
      std::vector<double> node_phi(kDims, 0.0);
      std::vector<double> flat_phi(kDims, 0.0);
      oracle::TreeShapValues(trees[t], x, &node_phi);
      FlatTreeShapValues(flat, t, x.data(), &flat_phi);
      for (size_t j = 0; j < kDims; ++j)
        EXPECT_EQ(flat_phi[j], node_phi[j]) << "row " << i << " tree " << t;
    }
  }

  TreeShapExplainer explainer(*gbdt, ds.schema());
  auto batch = explainer.ExplainBatch(ds.x());
  ASSERT_TRUE(batch.ok());
  for (size_t i = 0; i < ds.n(); ++i) {
    const std::vector<double> x = ds.row(i);
    auto solo = explainer.Explain(x);
    ASSERT_TRUE(solo.ok());
    const FeatureAttribution& b = (*batch)[i];
    EXPECT_EQ(b.base_value, solo->base_value) << "row " << i;
    EXPECT_EQ(b.prediction, solo->prediction) << "row " << i;
    const std::vector<double> reference =
        oracle::EnsembleTreeShap(trees, gbdt->learning_rate(), kDims, x);
    double sum = 0.0;
    for (size_t j = 0; j < kDims; ++j) {
      EXPECT_EQ(b.values[j], solo->values[j]) << "row " << i;
      EXPECT_EQ(b.values[j], reference[j]) << "row " << i;
      sum += b.values[j];
    }
    const double margin = gbdt->PredictMargin(x);
    EXPECT_LE(std::fabs(b.base_value + sum - margin), 1e-9) << "row " << i;
    EXPECT_LE(std::fabs(b.prediction - margin), 1e-9) << "row " << i;
  }
}

}  // namespace
}  // namespace xai
