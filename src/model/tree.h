#ifndef XAIDB_MODEL_TREE_H_
#define XAIDB_MODEL_TREE_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "math/matrix.h"

namespace xai {

/// A node of a binary decision tree. Internal nodes route `x[feature] <=
/// threshold` to `left`, else `right`. Leaves carry `value`. Every node
/// carries `cover` (the training-sample weight that reached it), which is
/// exactly what the TreeSHAP path algorithm consumes.
struct TreeNode {
  int feature = -1;  // -1 marks a leaf.
  double threshold = 0.0;
  int left = -1;
  int right = -1;
  double value = 0.0;
  double cover = 0.0;

  bool is_leaf() const { return feature < 0; }
};

/// A plain binary regression/score tree: nodes in a flat vector, node 0 is
/// the root. This is the build and serialize form shared by DecisionTree,
/// RandomForest and GradientBoostedTrees; every tree walk (prediction,
/// TreeSHAP, sufficient reasons, influence) runs on the FlatEnsemble
/// (flat_tree.h) compiled from it.
struct Tree {
  std::vector<TreeNode> nodes;

  int MaxDepth() const;
  size_t NumLeaves() const;

  /// Check for trees that did not come from a fit (artifacts, hand-built
  /// parts): at least one node; every internal node splits on a feature <
  /// num_features and has two in-range children, each with a larger index
  /// than its parent and no other parent; every threshold, value and cover
  /// is finite and every cover is >= 0. Forward-only child links make the
  /// tree acyclic with depth < nodes.size(), so MaxDepth, traversal and the
  /// TreeSHAP path arena sized from it all terminate; a NaN or negative
  /// cover would otherwise reach the cover ratios TreeSHAP and TreePathGame
  /// divide by and come out as NaN attributions. Fitted trees always pass.
  Status Validate(size_t num_features) const;

  /// Expected prediction under the tree's own training distribution
  /// (cover-weighted average of leaf values) — the "background" value
  /// TreeSHAP attributes against. Rescans every leaf: hot paths read the
  /// copy FlatEnsemble precomputes at compile time instead.
  double ExpectedValue() const;
};

/// How a regression tree's splits are found.
enum class TrainMethod {
  /// Sort-per-node exact split enumeration — the reference oracle the
  /// histogram learner's parity tests compare against.
  kExact,
  /// Quantized histogram split finding over a BinnedDataset (default):
  /// per-feature parallel accumulation + parent−sibling subtraction.
  kHist,
};

/// Training-method knobs shared by DecisionTree/RandomForest/GBDT fits.
struct TrainOptions {
  TrainMethod method = TrainMethod::kHist;
  /// Histogram resolution per feature. <= 256 stores u8 bin codes,
  /// <= 65536 stores u16. Features with fewer distinct values than this
  /// are binned losslessly (one bin per value, exact-learner thresholds).
  int max_bins = 256;
  /// Derive the larger child's histogram as parent − sibling instead of
  /// re-accumulating it (off only for debugging/tests; only applies when
  /// feature sampling is off).
  bool hist_subtraction = true;
};

/// The check every tree-model Fit runs first: InvalidArgument, prefixed
/// with `model`, for an empty table, a non-finite feature or target (NaN
/// breaks the strict weak ordering the binning and exact-split sorts
/// need), or a histogram fit whose max_bins is outside [2, 65536].
Status ValidateTrainingInput(const char* model, const Matrix& x,
                             const std::vector<double>& y,
                             const TrainOptions& train);

/// CART configuration.
struct TreeConfig {
  int max_depth = 6;
  int min_samples_leaf = 5;
  /// Number of candidate features per split; 0 = all (deterministic CART),
  /// otherwise sampled per node (random forest mode).
  int max_features = 0;
  TrainOptions train;
};

/// Fits a regression tree minimizing squared error on (X, targets) with
/// optional per-sample `hessian_weights`: when provided, leaf values are
/// sum(target_i)/sum(weight_i) — the Newton leaf step used by gradient
/// boosting with logistic loss. Without weights, leaf value = mean target.
///
/// Dispatches on config.train.method: kHist quantizes x into a
/// BinnedDataset and runs the histogram learner (hist_learner.h), returning
/// the bin build's error for a matrix it refuses (empty, or holding
/// NaN/Inf); kExact rejects a non-finite feature or target with
/// InvalidArgument before it sorts anything. Callers fitting many trees
/// over the same matrix (forest/GBDT/CXPlain) should build the
/// BinnedDataset once and call FitRegressionTreeHist directly.
Result<Tree> FitRegressionTree(const Matrix& x,
                               const std::vector<double>& targets,
                               const TreeConfig& config,
                               const std::vector<double>* hessian_weights =
                                   nullptr,
                               const std::vector<size_t>* row_subset = nullptr,
                               Rng* rng = nullptr);

}  // namespace xai

#endif  // XAIDB_MODEL_TREE_H_
