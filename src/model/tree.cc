#include "model/tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "data/binned.h"
#include "model/hist_learner.h"
#include "obs/obs.h"

namespace xai {

int Tree::MaxDepth() const {
  // Iterative DFS carrying depth.
  int max_depth = 0;
  std::vector<std::pair<int, int>> stack = {{0, 0}};
  while (!stack.empty()) {
    auto [i, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    if (!nodes[i].is_leaf()) {
      stack.push_back({nodes[i].left, d + 1});
      stack.push_back({nodes[i].right, d + 1});
    }
  }
  return max_depth;
}

Status Tree::Validate(size_t num_features) const {
  if (nodes.empty()) return Status::InvalidArgument("tree has no nodes");
  const size_t n = nodes.size();
  auto bad = [](size_t i, const std::string& what) {
    return Status::InvalidArgument("tree node " + std::to_string(i) + ": " +
                                   what);
  };
  std::vector<bool> has_parent(n, false);
  for (size_t i = 0; i < n; ++i) {
    const TreeNode& nd = nodes[i];
    if (!std::isfinite(nd.threshold) || !std::isfinite(nd.value) ||
        !std::isfinite(nd.cover))
      return bad(i, "non-finite threshold, value or cover");
    if (nd.cover < 0.0) return bad(i, "negative cover");
    if (nd.is_leaf()) continue;
    if (static_cast<size_t>(nd.feature) >= num_features)
      return bad(i, "split feature " + std::to_string(nd.feature) +
                        " out of range");
    for (const int child : {nd.left, nd.right}) {
      if (child < 0 || static_cast<size_t>(child) <= i ||
          static_cast<size_t>(child) >= n)
        return bad(i, "child index " + std::to_string(child) +
                          " must lie in (" + std::to_string(i) + ", " +
                          std::to_string(n) + ")");
      if (has_parent[static_cast<size_t>(child)])
        return bad(i, "node " + std::to_string(child) +
                          " already has a parent");
      has_parent[static_cast<size_t>(child)] = true;
    }
  }
  return Status::OK();
}

size_t Tree::NumLeaves() const {
  size_t c = 0;
  for (const TreeNode& n : nodes)
    if (n.is_leaf()) ++c;
  return c;
}

double Tree::ExpectedValue() const {
  double total = 0.0;
  double weighted = 0.0;
  for (const TreeNode& n : nodes) {
    if (n.is_leaf()) {
      total += n.cover;
      weighted += n.cover * n.value;
    }
  }
  return total > 0.0 ? weighted / total : 0.0;
}

namespace {

/// Recursive CART builder over an index range [begin, end) of `order`.
class TreeBuilder {
 public:
  TreeBuilder(const Matrix& x, const std::vector<double>& t,
              const std::vector<double>* h, const TreeConfig& config,
              Rng* rng)
      : x_(x), t_(t), h_(h), config_(config), rng_(rng) {}

  Tree Build(std::vector<size_t> rows) {
    tree_.nodes.clear();
    // One (value, row) scratch buffer for the whole fit: every node's
    // feature loop refills and re-sorts it in place, instead of paying a
    // fresh allocation per node.
    vals_.reserve(rows.size());
    BuildNode(&rows, 0, rows.size(), 0);
    return std::move(tree_);
  }

 private:
  double HWeight(size_t i) const { return h_ ? (*h_)[i] : 1.0; }

  // Creates the node for rows[begin, end) at `depth`; returns its index.
  int BuildNode(std::vector<size_t>* rows, size_t begin, size_t end,
                int depth) {
    double sum_t = 0.0;
    double sum_h = 0.0;
    for (size_t k = begin; k < end; ++k) {
      sum_t += t_[(*rows)[k]];
      sum_h += HWeight((*rows)[k]);
    }
    const int node_idx = static_cast<int>(tree_.nodes.size());
    tree_.nodes.emplace_back();
    tree_.nodes[node_idx].cover = static_cast<double>(end - begin);
    tree_.nodes[node_idx].value =
        sum_h > 1e-12 ? sum_t / sum_h : 0.0;

    const size_t n = end - begin;
    if (depth >= config_.max_depth ||
        n < 2 * static_cast<size_t>(config_.min_samples_leaf)) {
      return node_idx;
    }

    // Candidate features.
    const size_t d = x_.cols();
    std::vector<size_t> feats(d);
    std::iota(feats.begin(), feats.end(), 0);
    if (config_.max_features > 0 &&
        static_cast<size_t>(config_.max_features) < d && rng_) {
      feats = rng_->SampleWithoutReplacement(d, config_.max_features);
    }

    const double parent_score = sum_t * sum_t / std::max(sum_h, 1e-12);
    double best_gain = 1e-12;
    int best_feature = -1;
    double best_threshold = 0.0;

    std::vector<std::pair<double, size_t>>& vals = vals_;
    for (size_t f : feats) {
      vals.clear();
      for (size_t k = begin; k < end; ++k)
        vals.emplace_back(x_((*rows)[k], f), (*rows)[k]);
      std::sort(vals.begin(), vals.end());
      if (vals.front().first == vals.back().first) continue;
      double left_t = 0.0;
      double left_h = 0.0;
      for (size_t k = 0; k + 1 < n; ++k) {
        left_t += t_[vals[k].second];
        left_h += HWeight(vals[k].second);
        if (vals[k].first == vals[k + 1].first) continue;
        const size_t n_left = k + 1;
        const size_t n_right = n - n_left;
        if (n_left < static_cast<size_t>(config_.min_samples_leaf) ||
            n_right < static_cast<size_t>(config_.min_samples_leaf))
          continue;
        const double right_t = sum_t - left_t;
        const double right_h = sum_h - left_h;
        const double score =
            left_t * left_t / std::max(left_h, 1e-12) +
            right_t * right_t / std::max(right_h, 1e-12);
        const double gain = score - parent_score;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = static_cast<int>(f);
          best_threshold = 0.5 * (vals[k].first + vals[k + 1].first);
        }
      }
    }

    if (best_feature < 0) return node_idx;

    // Partition rows in place: left block first.
    const auto mid_it = std::partition(
        rows->begin() + static_cast<std::ptrdiff_t>(begin),
        rows->begin() + static_cast<std::ptrdiff_t>(end), [&](size_t r) {
          return x_(r, static_cast<size_t>(best_feature)) <= best_threshold;
        });
    const size_t mid =
        static_cast<size_t>(mid_it - rows->begin());
    if (mid == begin || mid == end) return node_idx;  // Degenerate split.

    tree_.nodes[node_idx].feature = best_feature;
    tree_.nodes[node_idx].threshold = best_threshold;
    const int left = BuildNode(rows, begin, mid, depth + 1);
    tree_.nodes[node_idx].left = left;
    const int right = BuildNode(rows, mid, end, depth + 1);
    tree_.nodes[node_idx].right = right;
    return node_idx;
  }

  const Matrix& x_;
  const std::vector<double>& t_;
  const std::vector<double>* h_;
  const TreeConfig& config_;
  Rng* rng_;
  Tree tree_;
  std::vector<std::pair<double, size_t>> vals_;  // (feature value, row)
};

/// InvalidArgument, prefixed with `who`, naming the first non-finite target
/// or feature of (x, y).
Status CheckFinite(const std::string& who, const Matrix& x,
                   const std::vector<double>& y) {
  for (size_t i = 0; i < x.rows(); ++i) {
    if (!std::isfinite(y[i]))
      return Status::InvalidArgument(who + ": non-finite target at row " +
                                     std::to_string(i));
    const double* row = x.RowPtr(i);
    for (size_t j = 0; j < x.cols(); ++j)
      if (!std::isfinite(row[j]))
        return Status::InvalidArgument(
            who + ": non-finite feature " + std::to_string(j) + " at row " +
            std::to_string(i));
  }
  return Status::OK();
}

}  // namespace

Status ValidateTrainingInput(const char* model, const Matrix& x,
                             const std::vector<double>& y,
                             const TrainOptions& train) {
  const std::string who(model);
  if (x.rows() == 0) return Status::InvalidArgument(who + ": empty data");
  if (train.method == TrainMethod::kHist &&
      (train.max_bins < 2 || train.max_bins > 65536))
    return Status::InvalidArgument(who + ": max_bins must be in [2, 65536]");
  return CheckFinite(who, x, y);
}

Result<Tree> FitRegressionTree(const Matrix& x,
                               const std::vector<double>& targets,
                               const TreeConfig& config,
                               const std::vector<double>* hessian_weights,
                               const std::vector<size_t>* row_subset,
                               Rng* rng) {
  if (config.train.method == TrainMethod::kHist) {
    XAI_ASSIGN_OR_RETURN(BinnedDataset binned,
                         BinnedDataset::Build(x, config.train.max_bins));
    return FitRegressionTreeHist(binned, targets, config, hessian_weights,
                                 row_subset, rng);
  }
  // NaN breaks the strict weak ordering the per-node sorts need.
  XAI_RETURN_NOT_OK(CheckFinite("FitRegressionTree", x, targets));
  XAI_OBS_SPAN("train.fit_tree_exact");
  std::vector<size_t> rows;
  if (row_subset) {
    rows = *row_subset;
  } else {
    rows.resize(x.rows());
    std::iota(rows.begin(), rows.end(), 0);
  }
  TreeBuilder builder(x, targets, hessian_weights, config, rng);
  Tree tree = builder.Build(std::move(rows));
  XAI_OBS_COUNT("train.trees_fit_exact");
  return tree;
}

}  // namespace xai
