#include "model/gbdt.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "data/binned.h"
#include "math/stats.h"
#include "model/hist_learner.h"
#include "obs/obs.h"

namespace xai {

Result<GradientBoostedTrees> GradientBoostedTrees::Fit(const Dataset& ds,
                                                       const Options& opts) {
  XAI_RETURN_NOT_OK(
      ValidateTrainingInput("GBDT", ds.x(), ds.y(), opts.tree.train));
  XAI_OBS_SPAN("train.fit_gbdt");
  const size_t n = ds.n();
  GradientBoostedTrees m;
  m.loss_ = opts.loss;
  m.learning_rate_ = opts.learning_rate;
  m.num_features_ = ds.d();
  Rng rng(opts.seed);

  // Quantize once; all rounds share the read-only bin codes.
  BinnedDataset binned;
  const bool hist = opts.tree.train.method == TrainMethod::kHist;
  if (hist) {
    XAI_ASSIGN_OR_RETURN(
        binned, BinnedDataset::Build(ds.x(), opts.tree.train.max_bins));
  }

  if (opts.loss == Loss::kLogistic) {
    const double pos =
        std::accumulate(ds.y().begin(), ds.y().end(), 0.0) /
        static_cast<double>(n);
    const double p = std::clamp(pos, 1e-6, 1.0 - 1e-6);
    m.base_score_ = std::log(p / (1.0 - p));
  } else {
    m.base_score_ = Mean(ds.y());
  }

  std::vector<double> margin(n, m.base_score_);
  std::vector<double> residual(n);
  std::vector<double> hessian(n);
  std::vector<int32_t> leaf_of_row;

  m.trees_.reserve(opts.num_rounds);
  for (int round = 0; round < opts.num_rounds; ++round) {
    for (size_t i = 0; i < n; ++i) {
      if (opts.loss == Loss::kLogistic) {
        const double p = Sigmoid(margin[i]);
        residual[i] = ds.y()[i] - p;
        hessian[i] = std::max(p * (1.0 - p), 1e-6);
      } else {
        residual[i] = ds.y()[i] - margin[i];
        hessian[i] = 1.0;
      }
    }
    const std::vector<double>* hess =
        opts.loss == Loss::kLogistic ? &hessian : nullptr;

    std::vector<size_t> rows;
    const std::vector<size_t>* rows_ptr = nullptr;
    if (opts.subsample < 1.0) {
      const size_t k = std::max<size_t>(
          1, static_cast<size_t>(opts.subsample * static_cast<double>(n)));
      rows = rng.SampleWithoutReplacement(n, k);
      rows_ptr = &rows;
    }
    Rng tree_rng = rng.Fork();
    Rng* tree_rng_ptr = opts.tree.max_features > 0 ? &tree_rng : nullptr;
    Tree tree;
    if (hist && rows_ptr == nullptr) {
      // Full-data round: the learner already knows which leaf every row
      // landed in, so the margin update is one indexed add per row — no
      // tree re-traversal at all (the binned-codes fast path).
      tree = FitRegressionTreeHist(binned, residual, opts.tree, hess,
                                   nullptr, tree_rng_ptr, &leaf_of_row);
      for (size_t i = 0; i < n; ++i)
        margin[i] += opts.learning_rate *
                     tree.nodes[static_cast<size_t>(leaf_of_row[i])].value;
    } else {
      if (hist) {
        tree = FitRegressionTreeHist(binned, residual, opts.tree, hess,
                                     rows_ptr, tree_rng_ptr);
      } else {
        XAI_ASSIGN_OR_RETURN(tree, FitRegressionTree(ds.x(), residual,
                                                     opts.tree, hess, rows_ptr,
                                                     tree_rng_ptr));
      }
      // Subsampled rounds update margins for *all* rows: compile the round
      // tree and run the branch-free flat accumulation.
      const FlatEnsemble one = FlatEnsemble::Compile(tree);
      one.AccumulateTree(0, ds.x(), opts.learning_rate, &margin);
    }
    m.trees_.push_back(std::move(tree));
  }
  m.flat_ = FlatEnsemble::Compile(m.trees_);
  return m;
}

Result<GradientBoostedTrees> GradientBoostedTrees::FromParts(
    std::vector<Tree> trees, double base_score, double learning_rate,
    Loss loss, size_t num_features) {
  for (const Tree& t : trees) XAI_RETURN_NOT_OK(t.Validate(num_features));
  GradientBoostedTrees m;
  m.trees_ = std::move(trees);
  m.flat_ = FlatEnsemble::Compile(m.trees_);
  m.base_score_ = base_score;
  m.learning_rate_ = learning_rate;
  m.loss_ = loss;
  m.num_features_ = num_features;
  return m;
}

double GradientBoostedTrees::PredictMargin(
    const std::vector<double>& x) const {
  double f = base_score_;
  for (size_t t = 0; t < flat_.num_trees(); ++t)
    f += learning_rate_ * flat_.PredictTree(t, x.data());
  return f;
}

double GradientBoostedTrees::Predict(const std::vector<double>& x) const {
  const double f = PredictMargin(x);
  return loss_ == Loss::kLogistic ? Sigmoid(f) : f;
}

std::vector<double> GradientBoostedTrees::PredictMarginBatch(
    const Matrix& x) const {
  std::vector<double> out(x.rows(), base_score_);
  flat_.AccumulateAll(x, learning_rate_, &out);
  return out;
}

std::vector<double> GradientBoostedTrees::PredictBatch(const Matrix& x) const {
  std::vector<double> out = PredictMarginBatch(x);
  if (loss_ == Loss::kLogistic)
    for (double& v : out) v = Sigmoid(v);
  return out;
}

}  // namespace xai
