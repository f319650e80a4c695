#ifndef XAIDB_MODEL_FLAT_TREE_H_
#define XAIDB_MODEL_FLAT_TREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "math/matrix.h"
#include "model/tree.h"

namespace xai {

/// A fitted tree ensemble compiled into one contiguous structure-of-arrays
/// layout (the LightGBM `Tree` idiom): every node field lives in its own
/// flat array, all trees concatenated, child links stored as *global*
/// indices so the traversal inner loop is pure index arithmetic —
///
///   i = x[feature[i]] <= threshold[i] ? left[i] : right[i]
///
/// with no node objects, no pointer chasing and no per-step offset math.
///
/// Two compile-time tricks make the hot loop branch-light:
///
///  1. **Leaf self-loops.** A leaf stores `left == right == self`, routing
///     feature 0 and threshold +inf, so the traversal step above is a
///     no-op once a row lands in a leaf (NaN routes right, also to self).
///  2. **Fixed trip count.** Each tree records its max depth; the
///     predictor runs exactly `depth` routing steps for every row. Rows
///     that reach their leaf early just self-loop, so the only
///     data-dependent control flow left is the `<=` select itself, and
///     several rows can be traversed as interleaved cursors to hide the
///     dependent-load latency.
///
/// This is the only tree runtime: prediction, TreeSHAP, TreePathGame,
/// interventional SHAP, sufficient reasons, GBDT leaf influence and the
/// CXPlain surrogate all walk these arrays; `Tree` is only the build and
/// serialize form. Routing is `x[feature] <= threshold`, so every
/// prediction (and every TreeSHAP cover ratio read off these arrays) is
/// bit-identical to the node-object reference walks in tests/tree_oracle.h
/// — the determinism contract the eval cache and coalescing service rely
/// on.
///
/// `ExpectedValue` (the cover-weighted leaf average TreeSHAP attributes
/// against) is computed once per tree at compile time instead of rescanned
/// per explain.
class FlatEnsemble {
 public:
  FlatEnsemble() = default;

  /// Compiles fitted trees into the flat form. Node order within a tree is
  /// preserved, so node `k` of tree `t` lives at global index
  /// `root(t) + k`.
  static FlatEnsemble Compile(const std::vector<Tree>& trees);
  static FlatEnsemble Compile(const Tree& tree);

  size_t num_trees() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  size_t num_nodes() const { return value_.size(); }
  bool empty() const { return num_trees() == 0; }

  /// Global index of tree t's root.
  int32_t root(size_t t) const { return offsets_[t]; }
  /// A leaf self-loops; no valid internal node can be its own child.
  bool is_leaf(int32_t i) const {
    return children_[2 * static_cast<size_t>(i)] == i;
  }
  int feature(int32_t i) const { return feature_[static_cast<size_t>(i)]; }
  double threshold(int32_t i) const {
    return threshold_[static_cast<size_t>(i)];
  }
  int32_t left(int32_t i) const {
    return children_[2 * static_cast<size_t>(i)];
  }
  int32_t right(int32_t i) const {
    return children_[2 * static_cast<size_t>(i) + 1];
  }
  double value(int32_t i) const { return value_[static_cast<size_t>(i)]; }
  double cover(int32_t i) const { return cover_[static_cast<size_t>(i)]; }

  /// Max root-to-leaf edge count of tree t (the predictor's trip count).
  int depth(size_t t) const { return depth_[t]; }
  /// Cover-weighted average leaf value of tree t, precomputed at compile
  /// time with the same accumulation order as Tree::ExpectedValue (so the
  /// double is identical).
  double expected_value(size_t t) const { return expected_value_[t]; }

  /// Global index of the leaf row x lands in under tree t.
  int32_t Leaf(size_t t, const double* x) const;
  /// Leaf value of tree t on row x.
  double PredictTree(size_t t, const double* x) const {
    return value_[static_cast<size_t>(Leaf(t, x))];
  }

  /// out[i] += scale * tree_t(row i) for every row of x: row blocks of
  /// interleaved traversal cursors, fixed `depth(t)` routing steps each.
  void AccumulateTree(size_t t, const Matrix& x, double scale,
                      std::vector<double>* out) const;

  /// out[i] += scale * sum_t tree_t(row i), traversed tree-outer /
  /// row-inner so one tree's arrays stay cache-hot across the whole row
  /// block. Per row, trees accumulate in tree order — the same order as
  /// the scalar ensemble loop, keeping results bit-identical.
  void AccumulateAll(const Matrix& x, double scale,
                     std::vector<double>* out) const;

 private:
  void AppendTree(const Tree& tree);
  /// Interleaved-cursor traversal of tree t over rows [begin, end).
  void AccumulateRange(size_t t, const Matrix& x, size_t begin, size_t end,
                       double scale, std::vector<double>* out) const;

  // One entry per node, all trees concatenated (SoA). The left/right child
  // arrays are interleaved as children_[2*i + side] so (a) a node's two
  // children always share a cache line and (b) the routing step is pure
  // index arithmetic on the comparison result — no ternary for the
  // compiler to turn back into a branch.
  std::vector<int32_t> feature_;    // Split feature; 0 (unused) at leaves.
  std::vector<double> threshold_;   // Split threshold; +inf at leaves.
  std::vector<int32_t> children_;   // [2i]=left, [2i+1]=right; self at leaves.
  std::vector<double> value_;       // Leaf/internal node value.
  std::vector<double> cover_;       // Training-sample weight (TreeSHAP).
  // One entry per tree (+1 sentinel for offsets_).
  std::vector<int32_t> offsets_;    // offsets_[t] = first node of tree t.
  std::vector<int> depth_;
  std::vector<double> expected_value_;
};

}  // namespace xai

#endif  // XAIDB_MODEL_FLAT_TREE_H_
