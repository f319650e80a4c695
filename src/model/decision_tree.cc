#include "model/decision_tree.h"

#include <cmath>

#include "common/thread_pool.h"
#include "data/binned.h"
#include "model/hist_learner.h"
#include "obs/obs.h"

namespace xai {

Result<DecisionTree> DecisionTree::Fit(const Dataset& ds,
                                       const TreeConfig& config) {
  XAI_RETURN_NOT_OK(
      ValidateTrainingInput("DecisionTree", ds.x(), ds.y(), config.train));
  XAI_ASSIGN_OR_RETURN(Tree tree, FitRegressionTree(ds.x(), ds.y(), config));
  return FromParts(std::move(tree), ds.d());
}

Result<DecisionTree> DecisionTree::FromParts(Tree tree,
                                             size_t num_features) {
  XAI_RETURN_NOT_OK(tree.Validate(num_features));
  DecisionTree m;
  m.tree_ = std::move(tree);
  m.flat_ = FlatEnsemble::Compile(m.tree_);
  m.num_features_ = num_features;
  return m;
}

double DecisionTree::Predict(const std::vector<double>& x) const {
  return flat_.PredictTree(0, x.data());
}

std::vector<double> DecisionTree::PredictBatch(const Matrix& x) const {
  std::vector<double> out(x.rows(), 0.0);
  flat_.AccumulateTree(0, x, 1.0, &out);
  return out;
}

Result<RandomForest> RandomForest::Fit(const Dataset& ds,
                                       const Options& opts) {
  XAI_RETURN_NOT_OK(
      ValidateTrainingInput("RandomForest", ds.x(), ds.y(), opts.tree.train));
  XAI_OBS_SPAN("train.fit_forest");
  TreeConfig cfg = opts.tree;
  if (cfg.max_features == 0) {
    cfg.max_features = std::max(
        1, static_cast<int>(std::sqrt(static_cast<double>(ds.d()))));
  }
  // Quantize once; every tree of the forest shares the read-only codes.
  BinnedDataset binned;
  const bool hist = cfg.train.method == TrainMethod::kHist;
  if (hist) {
    XAI_ASSIGN_OR_RETURN(binned,
                         BinnedDataset::Build(ds.x(), cfg.train.max_bins));
  }
  // Per-tree ChunkSeed counter streams (PR 2 scheme): tree t's bootstrap
  // bag and feature-sampling stream depend only on (seed, t), never on
  // which thread fits it or how many trees ran before — forest training
  // is bit-identical for any thread count.
  std::vector<Tree> trees(static_cast<size_t>(opts.num_trees));
  std::vector<Status> fit_status(trees.size());
  GlobalPool().ParallelFor(
      0, trees.size(), 1, [&](size_t t) {
        Rng boot_rng(ChunkSeed(opts.seed, 2 * t));
        std::vector<size_t> rows(ds.n());
        for (size_t i = 0; i < ds.n(); ++i)
          rows[i] = static_cast<size_t>(boot_rng.NextInt(ds.n()));
        Rng tree_rng(ChunkSeed(opts.seed, 2 * t + 1));
        if (hist) {
          trees[t] = FitRegressionTreeHist(binned, ds.y(), cfg, nullptr,
                                           &rows, &tree_rng);
        } else if (auto fit = FitRegressionTree(ds.x(), ds.y(), cfg, nullptr,
                                                &rows, &tree_rng);
                   fit.ok()) {
          trees[t] = std::move(fit).value();
        } else {
          fit_status[t] = fit.status();
        }
      });
  for (const Status& s : fit_status) XAI_RETURN_NOT_OK(s);
  return FromParts(std::move(trees), ds.d());
}

Result<RandomForest> RandomForest::FromParts(std::vector<Tree> trees,
                                             size_t num_features) {
  if (trees.empty()) return Status::InvalidArgument("forest has no trees");
  for (const Tree& t : trees) XAI_RETURN_NOT_OK(t.Validate(num_features));
  RandomForest m;
  m.trees_ = std::move(trees);
  m.flat_ = FlatEnsemble::Compile(m.trees_);
  m.num_features_ = num_features;
  return m;
}

double RandomForest::Predict(const std::vector<double>& x) const {
  double s = 0.0;
  for (size_t t = 0; t < flat_.num_trees(); ++t)
    s += flat_.PredictTree(t, x.data());
  return s / static_cast<double>(flat_.num_trees());
}

std::vector<double> RandomForest::PredictBatch(const Matrix& x) const {
  std::vector<double> out(x.rows(), 0.0);
  flat_.AccumulateAll(x, 1.0, &out);
  for (double& v : out) v /= static_cast<double>(flat_.num_trees());
  return out;
}

}  // namespace xai
