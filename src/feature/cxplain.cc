#include "feature/cxplain.h"

#include <algorithm>
#include <cmath>

#include "data/binned.h"
#include "data/transforms.h"
#include "model/hist_learner.h"

namespace xai {
namespace {

/// Softmax with temperature over non-negative deltas.
std::vector<double> Normalize(std::vector<double> deltas, double temperature) {
  double max_d = 0.0;
  for (double d : deltas) max_d = std::max(max_d, d);
  double total = 0.0;
  for (double& d : deltas) {
    d = std::exp((d - max_d) / std::max(temperature, 1e-9));
    total += d;
  }
  for (double& d : deltas) d /= total;
  return deltas;
}

}  // namespace

std::vector<double> CxplainExplainer::DirectImportance(
    const std::vector<double>& instance) const {
  const size_t d = instance.size();
  const double base = model_.Predict(instance);
  std::vector<double> deltas(d);
  std::vector<double> masked = instance;
  for (size_t j = 0; j < d; ++j) {
    masked[j] = column_means_[j];
    deltas[j] = std::fabs(base - model_.Predict(masked));
    masked[j] = instance[j];
  }
  return Normalize(std::move(deltas), temperature_);
}

Result<CxplainExplainer> CxplainExplainer::Fit(const Model& model,
                                               const Dataset& reference,
                                               const CxplainOptions& opts) {
  if (reference.n() == 0)
    return Status::InvalidArgument("Cxplain: empty reference data");
  const ColumnStats stats = ComputeColumnStats(reference);
  CxplainExplainer explainer(model, reference.schema(), stats.mean,
                             opts.temperature);

  // Importance targets on (a subsample of) the reference rows.
  const size_t n = std::min(reference.n(), opts.max_train_rows);
  const size_t d = reference.d();
  Matrix targets(n, d);
  std::vector<size_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = i;
  Matrix x = reference.x().SelectRows(rows);
  for (size_t i = 0; i < n; ++i) {
    std::vector<double> imp = explainer.DirectImportance(x.Row(i));
    targets.SetRow(i, imp);
  }

  // One regression tree per feature: x -> importance_j. The histogram
  // learner quantizes x once and grows all d trees from the same codes.
  std::vector<Tree> trees(d);
  if (opts.tree.train.method == TrainMethod::kHist) {
    XAI_ASSIGN_OR_RETURN(BinnedDataset binned,
                         BinnedDataset::Build(x, opts.tree.train.max_bins));
    for (size_t j = 0; j < d; ++j)
      trees[j] = FitRegressionTreeHist(binned, targets.Col(j), opts.tree);
  } else {
    for (size_t j = 0; j < d; ++j) {
      XAI_ASSIGN_OR_RETURN(trees[j],
                           FitRegressionTree(x, targets.Col(j), opts.tree));
    }
  }
  explainer.surrogate_ = FlatEnsemble::Compile(trees);
  return explainer;
}

Result<FeatureAttribution> CxplainExplainer::Explain(
    const std::vector<double>& instance) {
  const size_t d = surrogate_.num_trees();
  if (instance.size() != d)
    return Status::InvalidArgument("Cxplain: arity mismatch");
  FeatureAttribution out;
  out.values.resize(d);
  double total = 0.0;
  for (size_t j = 0; j < d; ++j) {
    out.values[j] = std::max(0.0, surrogate_.PredictTree(j, instance.data()));
    total += out.values[j];
  }
  if (total > 1e-12) {
    for (double& v : out.values) v /= total;
  }
  for (size_t j = 0; j < d; ++j)
    out.feature_names.push_back(schema_.feature(j).name);
  out.prediction = model_.Predict(instance);
  out.base_value = 0.0;  // Importances are a distribution, not additive.
  return out;
}

}  // namespace xai
