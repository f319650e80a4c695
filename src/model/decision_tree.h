#ifndef XAIDB_MODEL_DECISION_TREE_H_
#define XAIDB_MODEL_DECISION_TREE_H_

#include "common/result.h"
#include "data/dataset.h"
#include "model/flat_tree.h"
#include "model/model.h"
#include "model/tree.h"

namespace xai {

/// Single CART tree. For classification the leaf value is the positive-class
/// fraction (so Predict returns a probability); for regression the mean
/// target. Binary-split variance reduction is used for both — for {0,1}
/// targets this is equivalent to the Gini gain.
///
/// Fit (and FromParts, the deserialization hook) compile the fitted tree
/// into a FlatEnsemble; Predict/PredictBatch and TreeSHAP all run off the
/// flat arrays, bit-identical to the node-object reference walks in
/// tests/tree_oracle.h.
class DecisionTree : public Model {
 public:
  static Result<DecisionTree> Fit(const Dataset& ds,
                                  const TreeConfig& config = {});
  /// Reconstructs a fitted tree from its parts (deserialization) and
  /// compiles the flat runtime form. A tree that fails Tree::Validate is
  /// rejected with InvalidArgument.
  static Result<DecisionTree> FromParts(Tree tree, size_t num_features);

  double Predict(const std::vector<double>& x) const override;
  /// Row-blocked flat-array traversal (bit-identical to Predict per row).
  std::vector<double> PredictBatch(const Matrix& x) const override;
  size_t num_features() const override { return num_features_; }

  const Tree& tree() const { return tree_; }
  /// The compiled serving/explaining form.
  const FlatEnsemble& flat() const { return flat_; }

 private:
  Tree tree_;
  FlatEnsemble flat_;
  size_t num_features_ = 0;
};

/// Bagged random forest of CART trees (bootstrap rows + per-node feature
/// subsampling); Predict averages tree outputs. Like DecisionTree, the
/// fitted trees are compiled into a FlatEnsemble that serves prediction
/// and TreeSHAP.
struct RandomForestOptions {
  int num_trees = 50;
  TreeConfig tree;
  uint64_t seed = 17;
};

class RandomForest : public Model {
 public:
  using Options = RandomForestOptions;

  static Result<RandomForest> Fit(const Dataset& ds, const Options& opts = Options());
  /// Reconstructs a fitted forest from its parts (deserialization) and
  /// compiles the flat runtime form. Rejects an empty forest or any tree
  /// that fails Tree::Validate with InvalidArgument.
  static Result<RandomForest> FromParts(std::vector<Tree> trees,
                                        size_t num_features);

  double Predict(const std::vector<double>& x) const override;
  /// Tree-outer / row-inner flat traversal (bit-identical to Predict).
  std::vector<double> PredictBatch(const Matrix& x) const override;
  size_t num_features() const override { return num_features_; }

  const std::vector<Tree>& trees() const { return trees_; }
  /// The compiled serving/explaining form.
  const FlatEnsemble& flat() const { return flat_; }

 private:
  std::vector<Tree> trees_;
  FlatEnsemble flat_;
  size_t num_features_ = 0;
};

}  // namespace xai

#endif  // XAIDB_MODEL_DECISION_TREE_H_
