// Node-object reference walks for the tree tests: the leaf walk, the
// tree-outer batch accumulate and Lundberg's path-dependent TreeSHAP
// recursion, all reading `Tree::nodes` directly. Every tree walk in src/
// runs on the compiled FlatEnsemble and must reproduce these doubles bit
// for bit; they are kept here, not in src/, because their only job is to
// check the production path.
#ifndef XAIDB_TESTS_TREE_ORACLE_H_
#define XAIDB_TESTS_TREE_ORACLE_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "math/matrix.h"
#include "model/tree.h"

namespace xai::oracle {

/// Index of the leaf x lands in: left iff x[feature] <= threshold.
inline int LeafIndex(const Tree& tree, const double* x) {
  int i = 0;
  while (!tree.nodes[static_cast<size_t>(i)].is_leaf()) {
    const TreeNode& n = tree.nodes[static_cast<size_t>(i)];
    i = x[n.feature] <= n.threshold ? n.left : n.right;
  }
  return i;
}
inline int LeafIndex(const Tree& tree, const std::vector<double>& x) {
  return LeafIndex(tree, x.data());
}

inline double Predict(const Tree& tree, const double* x) {
  return tree.nodes[static_cast<size_t>(LeafIndex(tree, x))].value;
}
inline double Predict(const Tree& tree, const std::vector<double>& x) {
  return Predict(tree, x.data());
}

/// out[i] += scale * tree(row i) for every row of x.
inline void AccumulateBatch(const Tree& tree, const Matrix& x, double scale,
                            std::vector<double>* out) {
  for (size_t i = 0; i < x.rows(); ++i)
    (*out)[i] += scale * Predict(tree, x.RowPtr(i));
}

/// One element of the unique-feature path.
struct PathElement {
  int feature;  // -1 for the root placeholder.
  double zero;  // Fraction of paths flowing through when feature absent.
  double one;   // 1 if the instance's value goes this way, else 0.
  double w;     // Permutation weight accumulated so far.
};

inline void Extend(std::vector<PathElement>* path, double pz, double po,
                   int pi) {
  std::vector<PathElement>& p = *path;
  const int l = static_cast<int>(p.size());
  p.push_back({pi, pz, po, l == 0 ? 1.0 : 0.0});
  for (int i = l - 1; i >= 0; --i) {
    p[i + 1].w += po * p[i].w * static_cast<double>(i + 1) /
                  static_cast<double>(l + 1);
    p[i].w = pz * p[i].w * static_cast<double>(l - i) /
             static_cast<double>(l + 1);
  }
}

/// Total permutation weight of the path if element `idx` were removed.
inline double UnwoundSum(const std::vector<PathElement>& m, int idx) {
  const int l = static_cast<int>(m.size()) - 1;
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

/// Removes element `idx` from the path, restoring the weights.
inline void Unwind(std::vector<PathElement>* path, int idx) {
  std::vector<PathElement>& p = *path;
  const int l = static_cast<int>(p.size()) - 1;
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
  p.pop_back();
}

/// Lundberg's recursion below `node`, each level on its own copy of the
/// parent's path.
inline void TreeShapRecurse(const Tree& tree, const double* x, double* phi,
                            int node, std::vector<PathElement> path,
                            double pz, double po, int pi) {
  Extend(&path, pz, po, pi);
  const TreeNode& nd = tree.nodes[static_cast<size_t>(node)];
  if (nd.is_leaf()) {
    for (int i = 1; i < static_cast<int>(path.size()); ++i) {
      const double w = UnwoundSum(path, i);
      phi[path[i].feature] += w * (path[i].one - path[i].zero) * nd.value;
    }
    return;
  }
  const bool go_left = x[static_cast<size_t>(nd.feature)] <= nd.threshold;
  const int hot = go_left ? nd.left : nd.right;
  const int cold = go_left ? nd.right : nd.left;
  const double hot_z =
      tree.nodes[static_cast<size_t>(hot)].cover / nd.cover;
  const double cold_z =
      tree.nodes[static_cast<size_t>(cold)].cover / nd.cover;
  double iz = 1.0;
  double io = 1.0;
  int k = 1;
  while (k < static_cast<int>(path.size()) && path[k].feature != nd.feature)
    ++k;
  if (k < static_cast<int>(path.size())) {
    iz = path[k].zero;
    io = path[k].one;
    Unwind(&path, k);
  }
  TreeShapRecurse(tree, x, phi, hot, path, iz * hot_z, io, nd.feature);
  TreeShapRecurse(tree, x, phi, cold, path, iz * cold_z, 0.0, nd.feature);
}

/// Path-dependent TreeSHAP of one tree, added into phi.
inline void TreeShapValues(const Tree& tree, const std::vector<double>& x,
                           std::vector<double>* phi) {
  TreeShapRecurse(tree, x.data(), phi->data(), 0, {}, 1.0, 1.0, -1);
}

/// SHAP values of the additive ensemble sum_t scale * tree_t(x): per-tree
/// values accumulated in tree order.
inline std::vector<double> EnsembleTreeShap(const std::vector<Tree>& trees,
                                            double scale,
                                            size_t num_features,
                                            const std::vector<double>& x) {
  std::vector<double> phi(num_features, 0.0);
  std::vector<double> tree_phi(num_features, 0.0);
  for (const Tree& t : trees) {
    std::fill(tree_phi.begin(), tree_phi.end(), 0.0);
    TreeShapValues(t, x, &tree_phi);
    for (size_t j = 0; j < num_features; ++j) phi[j] += scale * tree_phi[j];
  }
  return phi;
}

}  // namespace xai::oracle

#endif  // XAIDB_TESTS_TREE_ORACLE_H_
