#ifndef XAIDB_RULE_SUFFICIENT_REASON_H_
#define XAIDB_RULE_SUFFICIENT_REASON_H_

#include <vector>

#include "common/result.h"
#include "data/dataset.h"
#include "model/flat_tree.h"

namespace xai {

/// Logic-based, *provably correct* explanations (tutorial Section 2.2.2;
/// Shih, Choi & Darwiche 2018; Darwiche & Hirth 2020): a **sufficient
/// reason** (prime implicant explanation) for a decision-tree prediction
/// is a subset-minimal set of the instance's feature values that, fixed
/// alone, forces the same decision for *every* completion of the remaining
/// features — a sufficiency *guarantee*, unlike the probabilistic scores
/// of feature-attribution methods.
///
/// For a single tree the check "do all completions consistent with x_S
/// reach the same decision?" is computed exactly by traversing the tree
/// and following both branches of any split on a free feature. The tree
/// is a compiled single-tree FlatEnsemble (`DecisionTree::flat()`); only
/// its tree 0 is read.

struct SufficientReason {
  /// Features whose (instance) values form the prime implicant.
  std::vector<size_t> features;
  /// The decision being entailed (thresholded at 0.5).
  bool decision = false;
};

/// True iff fixing x's values on `features` entails the tree's decision on
/// x for all completions (completions range over all real values; a split
/// on a free feature explores both sides).
bool IsSufficientForTree(const FlatEnsemble& tree,
                         const std::vector<double>& x,
                         const std::vector<size_t>& features,
                         double threshold = 0.5);

struct SufficientReasonOptions {
  /// Deletion order heuristic: try to drop features with the smallest
  /// |global importance| first, producing smaller reasons in practice.
  /// Empty = natural order.
  std::vector<double> importance_hint;
  double threshold = 0.5;
};

/// One subset-minimal sufficient reason via greedy deletion: start from
/// all features and drop any whose removal keeps sufficiency. The result
/// is guaranteed minimal (no proper subset is sufficient) though not
/// guaranteed to be the globally *smallest* reason (that problem is
/// NP-hard for ensembles; for a single tree the greedy result is a prime
/// implicant).
Result<SufficientReason> MinimalSufficientReason(
    const FlatEnsemble& tree, const std::vector<double>& x,
    const SufficientReasonOptions& opts = SufficientReasonOptions());

/// All sufficient reasons of size <= max_size via bounded search
/// (exponential in max_size; intended for small d / presentation).
std::vector<SufficientReason> EnumerateSufficientReasons(
    const FlatEnsemble& tree, const std::vector<double>& x, size_t max_size,
    double threshold = 0.5);

}  // namespace xai

#endif  // XAIDB_RULE_SUFFICIENT_REASON_H_
