#include "rule/sufficient_reason.h"

#include <algorithm>
#include <numeric>

#include "math/combinatorics.h"

namespace xai {
namespace {

/// DFS over all leaves reachable when free features may take any value.
/// Returns false as soon as a leaf with the opposite decision is found.
bool AllReachableLeavesAgree(const FlatEnsemble& tree, int32_t node,
                             const std::vector<double>& x,
                             const std::vector<bool>& fixed, bool decision,
                             double threshold) {
  if (tree.is_leaf(node)) return (tree.value(node) >= threshold) == decision;
  const size_t f = static_cast<size_t>(tree.feature(node));
  if (fixed[f]) {
    const int32_t next =
        x[f] <= tree.threshold(node) ? tree.left(node) : tree.right(node);
    return AllReachableLeavesAgree(tree, next, x, fixed, decision,
                                   threshold);
  }
  return AllReachableLeavesAgree(tree, tree.left(node), x, fixed, decision,
                                 threshold) &&
         AllReachableLeavesAgree(tree, tree.right(node), x, fixed, decision,
                                 threshold);
}

}  // namespace

bool IsSufficientForTree(const FlatEnsemble& tree,
                         const std::vector<double>& x,
                         const std::vector<size_t>& features,
                         double threshold) {
  const bool decision = tree.PredictTree(0, x.data()) >= threshold;
  std::vector<bool> fixed(x.size(), false);
  for (size_t f : features) fixed[f] = true;
  return AllReachableLeavesAgree(tree, tree.root(0), x, fixed, decision,
                                 threshold);
}

Result<SufficientReason> MinimalSufficientReason(
    const FlatEnsemble& tree, const std::vector<double>& x,
    const SufficientReasonOptions& opts) {
  const size_t d = x.size();
  if (tree.num_trees() != 1)
    return Status::InvalidArgument(
        "MinimalSufficientReason: expects one compiled tree");
  if (!opts.importance_hint.empty() && opts.importance_hint.size() != d)
    return Status::InvalidArgument(
        "MinimalSufficientReason: importance hint size mismatch");
  const bool decision = tree.PredictTree(0, x.data()) >= opts.threshold;

  std::vector<bool> fixed(d, true);
  // Deletion order: least important first (they are cheapest to free).
  std::vector<size_t> order(d);
  std::iota(order.begin(), order.end(), 0);
  if (!opts.importance_hint.empty()) {
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return std::abs(opts.importance_hint[a]) <
             std::abs(opts.importance_hint[b]);
    });
  }
  for (size_t j : order) {
    fixed[j] = false;
    if (!AllReachableLeavesAgree(tree, tree.root(0), x, fixed, decision,
                                 opts.threshold)) {
      fixed[j] = true;  // Needed: keep it.
    }
  }
  SufficientReason reason;
  reason.decision = decision;
  for (size_t j = 0; j < d; ++j)
    if (fixed[j]) reason.features.push_back(j);
  return reason;
}

std::vector<SufficientReason> EnumerateSufficientReasons(
    const FlatEnsemble& tree, const std::vector<double>& x, size_t max_size,
    double threshold) {
  const size_t d = x.size();
  std::vector<SufficientReason> out;
  if (d > 25) return out;  // Guard against blow-up.
  const bool decision = tree.PredictTree(0, x.data()) >= threshold;

  // Enumerate subsets in increasing size so minimality filtering only has
  // to check previously found (smaller) reasons.
  std::vector<uint32_t> found_masks;
  for (size_t size = 0; size <= std::min(max_size, d); ++size) {
    for (uint32_t mask = 0; mask < (1u << d); ++mask) {
      if (static_cast<size_t>(PopCount(mask)) != size) continue;
      // Skip supersets of known reasons (not prime).
      bool dominated = false;
      for (uint32_t m : found_masks) {
        if ((mask & m) == m) {
          dominated = true;
          break;
        }
      }
      if (dominated) continue;
      std::vector<size_t> features;
      for (size_t j = 0; j < d; ++j)
        if (mask & (1u << j)) features.push_back(j);
      if (IsSufficientForTree(tree, x, features, threshold)) {
        found_masks.push_back(mask);
        SufficientReason r;
        r.decision = decision;
        r.features = std::move(features);
        out.push_back(std::move(r));
      }
    }
  }
  return out;
}

}  // namespace xai
