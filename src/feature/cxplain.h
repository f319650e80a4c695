#ifndef XAIDB_FEATURE_CXPLAIN_H_
#define XAIDB_FEATURE_CXPLAIN_H_

#include <vector>

#include "common/result.h"
#include "core/explainer.h"
#include "data/dataset.h"
#include "model/flat_tree.h"
#include "model/model.h"
#include "model/tree.h"

namespace xai {

struct CxplainOptions {
  /// Trees per per-feature importance regressor.
  TreeConfig tree = {.max_depth = 4, .min_samples_leaf = 10,
                     .max_features = 0};
  /// Rows of the reference data used to build importance targets.
  size_t max_train_rows = 500;
  /// Softmax temperature over the per-feature loss deltas.
  double temperature = 1.0;
};

/// CXPlain-style causal-objective surrogate (Schwab & Karlen 2019),
/// tutorial Section 2.1.3: instead of fitting a surrogate to the model's
/// *outputs* (vanilla surrogate explainability), fit it to a *causal
/// objective* — the per-feature "Granger-causal" importance defined as the
/// increase in the black box's deviation when feature j is masked
/// (mean-imputed). The surrogate (here: one regression tree per feature,
/// compiled into one FlatEnsemble) then produces explanations in a single
/// forward pass, amortizing the d+1 model evaluations per instance the
/// direct computation needs.
class CxplainExplainer : public AttributionExplainer {
 public:
  /// Trains the importance surrogate against `model` on `reference` rows.
  static Result<CxplainExplainer> Fit(const Model& model,
                                      const Dataset& reference,
                                      const CxplainOptions& opts = CxplainOptions());

  /// Normalized importance scores from the surrogate (sum to 1).
  Result<FeatureAttribution> Explain(
      const std::vector<double>& instance) override;

  /// The training target the surrogate learns: softmax over per-feature
  /// masked-prediction deltas. Exposed so callers (and tests) can compare
  /// surrogate output against the direct computation.
  std::vector<double> DirectImportance(const std::vector<double>& instance) const;

  /// The surrogate: tree j regresses the importance of feature j.
  const FlatEnsemble& surrogate() const { return surrogate_; }

 private:
  CxplainExplainer(const Model& model, Schema schema,
                   std::vector<double> column_means, double temperature)
      : model_(model), schema_(std::move(schema)),
        column_means_(std::move(column_means)), temperature_(temperature) {}

  const Model& model_;
  Schema schema_;
  std::vector<double> column_means_;
  double temperature_;
  FlatEnsemble surrogate_;
};

}  // namespace xai

#endif  // XAIDB_FEATURE_CXPLAIN_H_
