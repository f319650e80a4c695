#include "valuation/gbdt_influence.h"

#include <algorithm>
#include <cmath>

#include "math/stats.h"

namespace xai {

Result<GbdtLeafInfluence> GbdtLeafInfluence::Create(
    const GradientBoostedTrees& model, const Dataset& train) {
  const size_t n = train.n();
  if (n == 0) return Status::InvalidArgument("GbdtInfluence: empty train");
  GbdtLeafInfluence infl(model, n);
  const FlatEnsemble& flat = model.flat();
  const size_t num_trees = flat.num_trees();
  infl.sample_leaf_.resize(num_trees);
  infl.leaf_g_.resize(num_trees);
  infl.leaf_h_.resize(num_trees);
  infl.sample_g_.resize(num_trees);
  infl.sample_h_.resize(num_trees);

  // Replay boosting: the trees are fixed, so tracking margins recovers the
  // per-round gradients/hessians each leaf aggregated at fit time. Leaves
  // are recorded as node indices within their tree.
  std::vector<double> margin(n, model.base_score());
  const bool logistic =
      model.loss() == GradientBoostedTrees::Loss::kLogistic;
  for (size_t t = 0; t < num_trees; ++t) {
    const int32_t root = flat.root(t);
    const size_t tree_nodes = model.trees()[t].nodes.size();
    infl.sample_leaf_[t].resize(n);
    infl.leaf_g_[t].assign(tree_nodes, 0.0);
    infl.leaf_h_[t].assign(tree_nodes, 0.0);
    infl.sample_g_[t].resize(n);
    infl.sample_h_[t].resize(n);
    for (size_t i = 0; i < n; ++i) {
      double g;
      double h;
      if (logistic) {
        const double p = Sigmoid(margin[i]);
        g = train.y()[i] - p;  // Negative gradient (residual).
        h = std::max(p * (1.0 - p), 1e-6);
      } else {
        g = train.y()[i] - margin[i];
        h = 1.0;
      }
      const int32_t leaf = flat.Leaf(t, train.x().RowPtr(i));
      const int local = leaf - root;
      infl.sample_leaf_[t][i] = local;
      infl.leaf_g_[t][static_cast<size_t>(local)] += g;
      infl.leaf_h_[t][static_cast<size_t>(local)] += h;
      infl.sample_g_[t][i] = g;
      infl.sample_h_[t][i] = h;
      margin[i] += model.learning_rate() * flat.value(leaf);
    }
  }
  return infl;
}

std::vector<double> GbdtLeafInfluence::InfluenceOnPrediction(
    const std::vector<double>& x) const {
  const FlatEnsemble& flat = model_.flat();
  std::vector<double> out(n_, 0.0);
  for (size_t t = 0; t < flat.num_trees(); ++t) {
    const int test_leaf = flat.Leaf(t, x.data()) - flat.root(t);
    const double g = leaf_g_[t][static_cast<size_t>(test_leaf)];
    const double h = leaf_h_[t][static_cast<size_t>(test_leaf)];
    const double value = h > 1e-12 ? g / h : 0.0;
    for (size_t i = 0; i < n_; ++i) {
      if (sample_leaf_[t][i] != test_leaf) continue;
      const double g2 = g - sample_g_[t][i];
      const double h2 = h - sample_h_[t][i];
      const double new_value = h2 > 1e-12 ? g2 / h2 : 0.0;
      out[i] += model_.learning_rate() * (new_value - value);
    }
  }
  return out;
}

std::vector<double> GbdtLeafInfluence::InfluenceOnValidationLoss(
    const Dataset& validation) const {
  std::vector<double> out(n_, 0.0);
  const bool logistic =
      model_.loss() == GradientBoostedTrees::Loss::kLogistic;
  for (size_t v = 0; v < validation.n(); ++v) {
    const std::vector<double> xv = validation.row(v);
    const std::vector<double> dm = InfluenceOnPrediction(xv);
    double dldm;  // d loss / d margin at the current prediction.
    if (logistic) {
      const double p = Sigmoid(model_.PredictMargin(xv));
      dldm = p - validation.y()[v];
    } else {
      dldm = 2.0 * (model_.PredictMargin(xv) - validation.y()[v]);
    }
    for (size_t i = 0; i < n_; ++i)
      out[i] += dldm * dm[i] / static_cast<double>(validation.n());
  }
  return out;
}

}  // namespace xai
