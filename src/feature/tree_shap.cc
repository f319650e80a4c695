#include "feature/tree_shap.h"

#include <algorithm>
#include <cmath>

#include "math/combinatorics.h"
#include "obs/obs.h"

namespace xai {
namespace {

/// One element of the unique-feature path maintained by the algorithm.
struct PathElement {
  int feature;  // -1 for the root placeholder.
  double zero;  // Fraction of paths flowing through when feature absent.
  double one;   // 1 if the instance's value goes this way, else 0.
  double w;     // Permutation weight accumulated so far.
};

/// Path arena (the layout of Lundberg et al.'s reference code). The
/// recursion level at a node owns one slice of a single buffer: it starts
/// at the parent's slice + parent's path length + 1 and holds a copy of the
/// parent's path, which this level then extends and unwinds in place. The
/// parent's slice is never written below it, so its second child starts
/// from the same path as the first. A node at depth k holds at most k + 1
/// elements, so a tree of max depth D needs (D + 2)(D + 3) / 2 elements —
/// allocated once per explain call, never inside the recursion.
size_t PathArenaSize(int max_depth) {
  const size_t d = static_cast<size_t>(max_depth);
  return (d + 2) * (d + 3) / 2;
}

/// Grows the path of `l` elements by one split, updating permutation
/// weights.
void Extend(PathElement* p, int l, double pz, double po, int pi) {
  p[l] = {pi, pz, po, l == 0 ? 1.0 : 0.0};
  for (int i = l - 1; i >= 0; --i) {
    p[i + 1].w += po * p[i].w * static_cast<double>(i + 1) /
                  static_cast<double>(l + 1);
    p[i].w = pz * p[i].w * static_cast<double>(l - i) /
             static_cast<double>(l + 1);
  }
}

/// Total permutation weight of the path of `len` elements if element `idx`
/// were removed (without mutating the path).
double UnwoundSum(const PathElement* m, int len, int idx) {
  const int l = len - 1;
  const double one = m[idx].one;
  const double zero = m[idx].zero;
  double next = m[l].w;
  double total = 0.0;
  for (int i = l - 1; i >= 0; --i) {
    if (one != 0.0) {
      const double tmp = next * static_cast<double>(l + 1) /
                         (static_cast<double>(i + 1) * one);
      total += tmp;
      next = m[i].w - tmp * zero * static_cast<double>(l - i) /
                          static_cast<double>(l + 1);
    } else {
      total += m[i].w / zero * static_cast<double>(l + 1) /
               static_cast<double>(l - i);
    }
  }
  return total;
}

/// Removes element `idx` from the path of `len` elements, restoring
/// weights; the path then holds len - 1 elements.
void Unwind(PathElement* p, int len, int idx) {
  const int l = len - 1;
  const double one = p[idx].one;
  const double zero = p[idx].zero;
  double next = p[l].w;
  for (int i = l - 1; i >= 0; --i) {
    if (one != 0.0) {
      const double tmp = p[i].w;
      p[i].w = next * static_cast<double>(l + 1) /
               (static_cast<double>(i + 1) * one);
      next = tmp - p[i].w * zero * static_cast<double>(l - i) /
                       static_cast<double>(l + 1);
    } else {
      p[i].w = p[i].w * static_cast<double>(l + 1) /
               (zero * static_cast<double>(l - i));
    }
  }
  for (int i = idx; i < l; ++i) {
    p[i].feature = p[i + 1].feature;
    p[i].zero = p[i + 1].zero;
    p[i].one = p[i + 1].one;
  }
}

/// Path-dependent TreeSHAP below `node`: `parent` is the caller's slice of
/// the path arena, holding `parent_len` elements. Adds the node's
/// contributions into phi and returns the value of the leaf reached along
/// the all-hot path — the tree's prediction on x, by the same `<=`
/// routing the predictors use.
double Recurse(const FlatEnsemble& tree, const double* x, double* phi,
               int32_t node, PathElement* parent, int parent_len, double pz,
               double po, int pi) {
  PathElement* path = parent + parent_len + 1;
  std::copy(parent, parent + parent_len, path);
  Extend(path, parent_len, pz, po, pi);
  int len = parent_len + 1;
  if (tree.is_leaf(node)) {
    const double leaf_value = tree.value(node);
    for (int i = 1; i < len; ++i) {
      const double w = UnwoundSum(path, len, i);
      phi[path[i].feature] += w * (path[i].one - path[i].zero) * leaf_value;
    }
    return leaf_value;
  }
  const int feature = tree.feature(node);
  const bool go_left =
      x[static_cast<size_t>(feature)] <= tree.threshold(node);
  const int32_t hot = go_left ? tree.left(node) : tree.right(node);
  const int32_t cold = go_left ? tree.right(node) : tree.left(node);
  const double node_cover = tree.cover(node);
  const double hot_z = tree.cover(hot) / node_cover;
  const double cold_z = tree.cover(cold) / node_cover;
  double iz = 1.0;
  double io = 1.0;
  int k = 1;
  while (k < len && path[k].feature != feature) ++k;
  if (k < len) {
    iz = path[k].zero;
    io = path[k].one;
    Unwind(path, len, k);
    --len;
  }
  const double hot_value =
      Recurse(tree, x, phi, hot, path, len, iz * hot_z, io, feature);
  Recurse(tree, x, phi, cold, path, len, iz * cold_z, 0.0, feature);
  return hot_value;
}

/// Tree t's contributions added into phi, walking within `arena` (at least
/// PathArenaSize(ens.depth(t)) elements); returns tree t's leaf value on x.
double FlatTreeShap(const FlatEnsemble& ens, size_t t, const double* x,
                    PathElement* arena, double* phi) {
  XAI_OBS_COUNT("feature.tree_shap.path_walks");
  return Recurse(ens, x, phi, ens.root(t), arena, 0, 1.0, 1.0, -1);
}

/// One arena big enough for every tree of the ensemble.
size_t EnsembleArenaSize(const FlatEnsemble& ens) {
  int depth = 0;
  for (size_t t = 0; t < ens.num_trees(); ++t)
    depth = std::max(depth, ens.depth(t));
  return PathArenaSize(depth);
}

}  // namespace

void FlatTreeShapValues(const FlatEnsemble& ensemble, size_t t,
                        const double* x, std::vector<double>* phi) {
  std::vector<PathElement> arena(PathArenaSize(ensemble.depth(t)));
  FlatTreeShap(ensemble, t, x, arena.data(), phi->data());
}

TreePathGame::TreePathGame(const FlatEnsemble& ensemble, double scale,
                           std::vector<double> instance)
    : ensemble_(ensemble), scale_(scale), instance_(std::move(instance)) {}

double TreePathGame::NodeExpectation(int32_t node,
                                     const std::vector<bool>& s) const {
  const FlatEnsemble& e = ensemble_;
  if (e.is_leaf(node)) return e.value(node);
  const int f = e.feature(node);
  if (s[static_cast<size_t>(f)]) {
    const int32_t next =
        instance_[static_cast<size_t>(f)] <= e.threshold(node) ? e.left(node)
                                                               : e.right(node);
    return NodeExpectation(next, s);
  }
  const double cl = e.cover(e.left(node));
  const double cr = e.cover(e.right(node));
  return (cl * NodeExpectation(e.left(node), s) +
          cr * NodeExpectation(e.right(node), s)) /
         (cl + cr);
}

double TreePathGame::Value(const std::vector<bool>& in_coalition) const {
  double total = 0.0;
  for (size_t t = 0; t < ensemble_.num_trees(); ++t)
    total += scale_ * NodeExpectation(ensemble_.root(t), in_coalition);
  return total;
}

TreeShapExplainer::TreeShapExplainer(const GradientBoostedTrees& gbdt,
                                     const Schema& schema)
    : flat_(&gbdt.flat()), arena_size_(EnsembleArenaSize(*flat_)),
      scale_(gbdt.learning_rate()), num_features_(gbdt.num_features()),
      schema_(schema) {
  base_ = gbdt.base_score();
  for (size_t t = 0; t < flat_->num_trees(); ++t)
    base_ += gbdt.learning_rate() * flat_->expected_value(t);
}

TreeShapExplainer::TreeShapExplainer(const DecisionTree& tree,
                                     const Schema& schema)
    : flat_(&tree.flat()), arena_size_(EnsembleArenaSize(*flat_)),
      scale_(1.0), num_features_(tree.num_features()), schema_(schema) {
  base_ = flat_->expected_value(0);
}

TreeShapExplainer::TreeShapExplainer(const RandomForest& forest,
                                     const Schema& schema)
    : flat_(&forest.flat()), arena_size_(EnsembleArenaSize(*flat_)),
      scale_(1.0 / static_cast<double>(forest.trees().size())),
      num_features_(forest.num_features()), schema_(schema) {
  base_ = 0.0;
  for (size_t t = 0; t < flat_->num_trees(); ++t)
    base_ += scale_ * flat_->expected_value(t);
}

Result<FeatureAttribution> TreeShapExplainer::Explain(
    const std::vector<double>& instance) {
  XAI_OBS_HIST_TIMER("feature.tree_shap.explain_us");
  XAI_OBS_SPAN("tree_shap");
  if (instance.size() != num_features_)
    return Status::InvalidArgument("TreeShap: instance arity mismatch");
  FeatureAttribution out;
  out.values.assign(num_features_, 0.0);
  std::vector<double> tree_phi(num_features_, 0.0);
  std::vector<PathElement> arena(arena_size_);
  double margin = base_;
  for (size_t t = 0; t < flat_->num_trees(); ++t) {
    std::fill(tree_phi.begin(), tree_phi.end(), 0.0);
    const double leaf = FlatTreeShap(*flat_, t, instance.data(),
                                     arena.data(), tree_phi.data());
    for (size_t j = 0; j < num_features_; ++j)
      out.values[j] += scale_ * tree_phi[j];
    margin += scale_ * (leaf - flat_->expected_value(t));
  }
  for (size_t j = 0; j < num_features_; ++j)
    out.feature_names.push_back(schema_.feature(j).name);
  out.base_value = base_;
  out.prediction = margin;
  return out;
}

Result<std::vector<FeatureAttribution>> TreeShapExplainer::ExplainBatch(
    const Matrix& instances) {
  XAI_OBS_HIST_TIMER("feature.tree_shap.explain_batch_us");
  XAI_OBS_SPAN("tree_shap_batch");
  XAI_OBS_COUNT_N("feature.tree_shap.batch_rows", instances.rows());
  XAI_OBS_TRACE_INSTANT("tree_shap.batch_rows", instances.rows());
  const size_t n = instances.rows();
  if (n == 0) return std::vector<FeatureAttribution>{};
  if (instances.cols() != num_features_)
    return Status::InvalidArgument("TreeShap: instance arity mismatch");

  std::vector<FeatureAttribution> out(n);
  std::vector<double> margins(n, base_);
  for (FeatureAttribution& attr : out) attr.values.assign(num_features_, 0.0);

  // Tree-outer / row-inner: one tree's flat arrays serve the whole row
  // block before the next tree is touched. Per row the accumulation order
  // over trees is unchanged, so values match the per-row loop bit-for-bit.
  // The per-tree expected value is a precomputed array read, rows are
  // walked straight out of the Matrix buffer (no per-row copy), one path
  // arena serves every (tree, row) walk, and each margin term is the leaf
  // the walker reached along the all-hot path (no second traversal).
  std::vector<double> tree_phi(num_features_, 0.0);
  std::vector<PathElement> arena(arena_size_);
  for (size_t t = 0; t < flat_->num_trees(); ++t) {
    const double expected = flat_->expected_value(t);
    for (size_t i = 0; i < n; ++i) {
      std::fill(tree_phi.begin(), tree_phi.end(), 0.0);
      const double leaf = FlatTreeShap(*flat_, t, instances.RowPtr(i),
                                       arena.data(), tree_phi.data());
      std::vector<double>& phi = out[i].values;
      for (size_t j = 0; j < num_features_; ++j)
        phi[j] += scale_ * tree_phi[j];
      margins[i] += scale_ * (leaf - expected);
    }
  }

  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < num_features_; ++j)
      out[i].feature_names.push_back(schema_.feature(j).name);
    out[i].base_value = base_;
    out[i].prediction = margins[i];
  }
  return out;
}

namespace {

/// DFS state for interventional TreeSHAP: which unique path features were
/// resolved toward the instance (X) or the reference (B).
struct InterventionalWalker {
  const FlatEnsemble& tree;
  const std::vector<double>& x;
  const std::vector<double>& ref;
  std::vector<double>* phi;
  // assignment[f]: 0 = unseen, 1 = instance side, 2 = reference side.
  std::vector<uint8_t> assignment;
  std::vector<int> x_features;
  std::vector<int> b_features;

  void Walk(int32_t node) {
    if (tree.is_leaf(node)) {
      const double value = tree.value(node);
      const double nx = static_cast<double>(x_features.size());
      const double nb = static_cast<double>(b_features.size());
      if (nx + nb == 0.0) return;  // Same leaf for x and ref: no credit.
      // (|X|-1)! |B|! / (|X|+|B|)! and the mirrored term, computed via
      // the binomial form to stay in range.
      if (!x_features.empty()) {
        const double w_pos =
            1.0 / (nx * BinomialCoefficient(static_cast<int>(nx + nb),
                                            static_cast<int>(nb)));
        for (int f : x_features)
          (*phi)[static_cast<size_t>(f)] += w_pos * value;
      }
      if (!b_features.empty()) {
        const double w_neg =
            1.0 / (nb * BinomialCoefficient(static_cast<int>(nx + nb),
                                            static_cast<int>(nx)));
        for (int f : b_features)
          (*phi)[static_cast<size_t>(f)] -= w_neg * value;
      }
      return;
    }
    const int feature = tree.feature(node);
    const size_t f = static_cast<size_t>(feature);
    const double threshold = tree.threshold(node);
    const int32_t x_child =
        x[f] <= threshold ? tree.left(node) : tree.right(node);
    const int32_t b_child =
        ref[f] <= threshold ? tree.left(node) : tree.right(node);
    if (x_child == b_child) {
      Walk(x_child);  // Feature neutral at this node.
      return;
    }
    switch (assignment[f]) {
      case 1:
        Walk(x_child);
        return;
      case 2:
        Walk(b_child);
        return;
      default:
        break;
    }
    // Unseen: branch both ways, assigning the feature each side.
    assignment[f] = 1;
    x_features.push_back(feature);
    Walk(x_child);
    x_features.pop_back();
    assignment[f] = 2;
    b_features.push_back(feature);
    Walk(b_child);
    b_features.pop_back();
    assignment[f] = 0;
  }
};

}  // namespace

void InterventionalTreeShap(const FlatEnsemble& ensemble, size_t t,
                            const std::vector<double>& x,
                            const std::vector<double>& reference,
                            std::vector<double>* phi) {
  XAI_OBS_COUNT("feature.tree_shap.interventional_walks");
  InterventionalWalker walker{ensemble, x, reference, phi,
                              std::vector<uint8_t>(x.size(), 0),
                              {},
                              {}};
  walker.Walk(ensemble.root(t));
}

std::vector<double> InterventionalEnsembleShap(
    const FlatEnsemble& ensemble, double scale, size_t num_features,
    const std::vector<double>& x, const Matrix& background,
    size_t max_background) {
  std::vector<double> phi(num_features, 0.0);
  const size_t m = std::min(background.rows(), max_background);
  const size_t stride = std::max<size_t>(1, background.rows() / m);
  std::vector<double> ref(num_features);
  std::vector<double> phi_one(num_features);
  size_t used = 0;
  for (size_t b = 0; b < m; ++b) {
    const size_t src = std::min(b * stride, background.rows() - 1);
    ref.assign(background.RowPtr(src),
               background.RowPtr(src) + background.cols());
    std::fill(phi_one.begin(), phi_one.end(), 0.0);
    for (size_t t = 0; t < ensemble.num_trees(); ++t)
      InterventionalTreeShap(ensemble, t, x, ref, &phi_one);
    for (size_t j = 0; j < num_features; ++j) phi[j] += scale * phi_one[j];
    ++used;
  }
  for (double& v : phi) v /= static_cast<double>(used);
  return phi;
}

std::vector<double> GlobalMeanAbsShap(TreeShapExplainer* explainer,
                                      const Dataset& ds, size_t max_rows) {
  const size_t n = std::min(ds.n(), max_rows);
  std::vector<double> importance(ds.d(), 0.0);
  // One amortized sweep instead of the deprecated per-row Explain loop.
  Matrix rows(n, ds.d());
  for (size_t i = 0; i < n; ++i) rows.SetRow(i, ds.row(i));
  auto attrs = explainer->ExplainBatch(rows);
  if (!attrs.ok()) return importance;
  for (const FeatureAttribution& attr : *attrs)
    for (size_t j = 0; j < ds.d(); ++j)
      importance[j] += std::fabs(attr.values[j]);
  for (double& v : importance) v /= static_cast<double>(n);
  return importance;
}

}  // namespace xai
