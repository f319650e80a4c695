#ifndef XAIDB_FEATURE_TREE_SHAP_H_
#define XAIDB_FEATURE_TREE_SHAP_H_

#include <vector>

#include "common/result.h"
#include "core/explainer.h"
#include "core/game.h"
#include "data/dataset.h"
#include "model/decision_tree.h"
#include "model/flat_tree.h"
#include "model/gbdt.h"

namespace xai {

/// Path-dependent TreeSHAP (Lundberg, Erion, Lee et al., Nature MI 2020):
/// exact Shapley values of the tree's conditional-expectation game in
/// O(L D^2) per instance instead of O(2^d) — the polynomial-time headline
/// the tutorial highlights in Section 2.1.2 (experiments E1/E2).
///
/// Adds the values for tree `t` of a compiled FlatEnsemble into `phi`, one
/// per feature; they satisfy
///   sum(phi) = tree_t(x) - ensemble.expected_value(t).
/// Every node read (feature, threshold, children, cover, leaf value) is an
/// index into the flat arrays, so prediction and explanation share one
/// memory layout. The node-object walker this is checked bit-identical
/// against lives in tests/tree_oracle.h.
///
/// The recursion keeps its unique-feature path in one arena: each level
/// copies its parent's path (at most depth + 1 elements) into its own
/// slice, which starts at the parent's slice + the parent's path length +
/// 1, so a tree of max depth D needs (D + 2)(D + 3) / 2 path elements and
/// no recursion level allocates. This entry point allocates one arena
/// sized from `ensemble.depth(t)`; TreeShapExplainer instead reuses one
/// arena across all trees and rows of an Explain/ExplainBatch call.
void FlatTreeShapValues(const FlatEnsemble& ensemble, size_t t,
                        const double* x, std::vector<double>* phi);

/// The cover-weighted conditional-expectation game TreeSHAP solves for
/// the additive ensemble sum_t scale * tree_t(x):
///   v(S) = E[f(x) | x_S]  (descend on S-features, cover-average others).
/// Exponential when fed to ExactShapley — used to verify TreeSHAP's
/// exactness and to measure the exact-vs-polynomial runtime gap. The
/// ensemble must outlive the game.
class TreePathGame : public CoalitionGame {
 public:
  TreePathGame(const FlatEnsemble& ensemble, double scale,
               std::vector<double> instance);

  size_t num_players() const override { return instance_.size(); }
  double Value(const std::vector<bool>& in_coalition) const override;

 private:
  double NodeExpectation(int32_t node, const std::vector<bool>& s) const;

  const FlatEnsemble& ensemble_;
  double scale_;
  std::vector<double> instance_;
};

/// AttributionExplainer facade over a GBDT (explains the raw margin — the
/// standard choice, attributions in log-odds space) or a single decision
/// tree / random forest (explains the probability).
///
/// Walks the model's compiled FlatEnsemble — the same SoA arrays serving
/// prediction — and reads the per-tree expected values precomputed at
/// compile time (no per-explain leaf rescans). Each Explain/ExplainBatch
/// call allocates one TreeSHAP path arena, sized for the deepest tree, and
/// reuses it for every (tree, row) walk; the prediction is assembled from
/// the leaves those walks reach, with no second traversal. The explainer
/// holds no mutable state, so distinct calls may run concurrently. The
/// model must outlive the explainer.
class TreeShapExplainer : public AttributionExplainer {
 public:
  explicit TreeShapExplainer(const GradientBoostedTrees& gbdt,
                             const Schema& schema);
  explicit TreeShapExplainer(const DecisionTree& tree, const Schema& schema);
  explicit TreeShapExplainer(const RandomForest& forest, const Schema& schema);

  Result<FeatureAttribution> Explain(
      const std::vector<double>& instance) override;

  /// Amortized multi-instance sweep, traversed tree-outer / row-inner so
  /// each tree's flat arrays stay cache-resident across the whole row
  /// block (the same locality win as the ensembles' PredictBatch). Per row
  /// the per-tree contributions still accumulate in tree order, so row i
  /// is bit-identical to Explain(row i).
  Result<std::vector<FeatureAttribution>> ExplainBatch(
      const Matrix& instances) override;

 private:
  const FlatEnsemble* flat_ = nullptr;
  size_t arena_size_ = 0;  // Path elements for the deepest tree.
  double scale_ = 1.0;
  double base_ = 0.0;
  size_t num_features_ = 0;
  const Schema& schema_;
};

/// Global importance as the tutorial's "local explanations to global
/// understanding": mean |SHAP value| per feature over a dataset.
std::vector<double> GlobalMeanAbsShap(TreeShapExplainer* explainer,
                                      const Dataset& ds, size_t max_rows = 200);

/// *Interventional* TreeSHAP against a single reference row (Lundberg et
/// al. 2020, "true to the model" variant): exact Shapley values of the
/// cube game v(S) = tree_t(x_S combined with reference on ~S) for tree `t`
/// of a compiled FlatEnsemble, computed in one tree walk instead of 2^d
/// evaluations. Each root-to-leaf path partitions its unique split
/// features into X (instance-satisfied) and B (reference-satisfied); the
/// leaf is a unanimity-minus-blockers game with closed-form Shapley
/// contribution
///   +v * (|X|-1)! |B|! / (|X|+|B|)!  for i in X,
///   -v * |X)! (|B|-1)! / (|X|+|B|)!  for i in B.
/// Accumulates into `phi`; sum(phi) = tree_t(x) - tree_t(reference).
void InterventionalTreeShap(const FlatEnsemble& ensemble, size_t t,
                            const std::vector<double>& x,
                            const std::vector<double>& reference,
                            std::vector<double>* phi);

/// Interventional SHAP averaged over a background dataset for the additive
/// ensemble sum_t scale * tree_t(x): equals the exact Shapley values of
/// MarginalFeatureGame over the same background (tests verify the
/// equality).
std::vector<double> InterventionalEnsembleShap(
    const FlatEnsemble& ensemble, double scale, size_t num_features,
    const std::vector<double>& x, const Matrix& background,
    size_t max_background = 100);

}  // namespace xai

#endif  // XAIDB_FEATURE_TREE_SHAP_H_
