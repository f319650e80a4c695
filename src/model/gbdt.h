#ifndef XAIDB_MODEL_GBDT_H_
#define XAIDB_MODEL_GBDT_H_

#include <vector>

#include "common/result.h"
#include "data/dataset.h"
#include "model/flat_tree.h"
#include "model/model.h"
#include "model/tree.h"

namespace xai {

/// Gradient-boosted decision trees.
///
/// - Logistic loss (classification): each round fits a regression tree to
///   the negative gradient (y - p) with Newton leaf values
///   sum(residual)/sum(p(1-p)); Predict returns a probability and
///   PredictMargin the raw log-odds F(x) = base + sum lr * tree_t(x).
/// - Squared loss (regression): trees fit plain residuals, Predict returns
///   F(x) directly.
///
/// Trees and leaf training-index assignments are exposed for TreeShap
/// (which explains the margin F) and for the LeafRefit influence
/// approximation (Sharchilev et al.).
enum class GbdtLoss { kLogistic, kSquared };

struct GbdtOptions {
  GbdtLoss loss = GbdtLoss::kLogistic;
  int num_rounds = 50;
  double learning_rate = 0.1;
  TreeConfig tree = {.max_depth = 3, .min_samples_leaf = 5,
                     .max_features = 0};
  /// Row subsample fraction per round (stochastic gradient boosting);
  /// 1.0 = deterministic.
  double subsample = 1.0;
  uint64_t seed = 29;
};

class GradientBoostedTrees : public Model {
 public:
  using Loss = GbdtLoss;
  using Options = GbdtOptions;

  static Result<GradientBoostedTrees> Fit(const Dataset& ds,
                                          const Options& opts = Options());
  /// Reconstructs a fitted ensemble from its parts (deserialization).
  /// Rejects any tree that fails Tree::Validate with InvalidArgument.
  static Result<GradientBoostedTrees> FromParts(std::vector<Tree> trees,
                                                double base_score,
                                                double learning_rate,
                                                Loss loss,
                                                size_t num_features);

  /// Probability for logistic loss, value for squared loss.
  double Predict(const std::vector<double>& x) const override;
  /// Tree-outer / row-inner flat-array traversal over the whole ensemble
  /// (bit-identical to Predict per row).
  std::vector<double> PredictBatch(const Matrix& x) const override;
  size_t num_features() const override { return num_features_; }

  /// Raw additive score: base_score + lr * sum_t tree_t(x).
  double PredictMargin(const std::vector<double>& x) const;
  /// Batched margins, same traversal as PredictBatch.
  std::vector<double> PredictMarginBatch(const Matrix& x) const;

  const std::vector<Tree>& trees() const { return trees_; }
  /// The compiled serving/explaining form (built at Fit/FromParts).
  const FlatEnsemble& flat() const { return flat_; }
  double base_score() const { return base_score_; }
  double learning_rate() const { return learning_rate_; }
  Loss loss() const { return loss_; }

 private:
  std::vector<Tree> trees_;
  FlatEnsemble flat_;
  double base_score_ = 0.0;
  double learning_rate_ = 0.1;
  Loss loss_ = Loss::kLogistic;
  size_t num_features_ = 0;
};

}  // namespace xai

#endif  // XAIDB_MODEL_GBDT_H_
