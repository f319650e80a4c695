#include "model/flat_tree.h"

#include <limits>

namespace xai {

void FlatEnsemble::AppendTree(const Tree& tree) {
  const int32_t base = static_cast<int32_t>(value_.size());
  offsets_.push_back(base);
  for (size_t k = 0; k < tree.nodes.size(); ++k) {
    const TreeNode& n = tree.nodes[k];
    const int32_t self = base + static_cast<int32_t>(k);
    if (n.is_leaf()) {
      feature_.push_back(0);
      threshold_.push_back(std::numeric_limits<double>::infinity());
      children_.push_back(self);
      children_.push_back(self);
    } else {
      feature_.push_back(n.feature);
      threshold_.push_back(n.threshold);
      children_.push_back(base + n.left);
      children_.push_back(base + n.right);
    }
    value_.push_back(n.value);
    cover_.push_back(n.cover);
  }
  depth_.push_back(tree.MaxDepth());
  expected_value_.push_back(tree.ExpectedValue());
}

FlatEnsemble FlatEnsemble::Compile(const std::vector<Tree>& trees) {
  FlatEnsemble f;
  size_t total = 0;
  for (const Tree& t : trees) total += t.nodes.size();
  f.feature_.reserve(total);
  f.threshold_.reserve(total);
  f.children_.reserve(2 * total);
  f.value_.reserve(total);
  f.cover_.reserve(total);
  f.offsets_.reserve(trees.size() + 1);
  f.depth_.reserve(trees.size());
  f.expected_value_.reserve(trees.size());
  for (const Tree& t : trees) f.AppendTree(t);
  f.offsets_.push_back(static_cast<int32_t>(f.value_.size()));
  return f;
}

FlatEnsemble FlatEnsemble::Compile(const Tree& tree) {
  FlatEnsemble f;
  f.AppendTree(tree);
  f.offsets_.push_back(static_cast<int32_t>(f.value_.size()));
  return f;
}

namespace {

/// One branch-free routing step: go left iff x[feature] <= threshold,
/// consumed as an array index (compiles to setcc + load, never a
/// conditional jump).
inline int32_t Step(const int32_t* children, const int32_t* feature,
                    const double* threshold, const double* row, int32_t i) {
  const size_t side =
      1 - static_cast<size_t>(row[feature[i]] <= threshold[i]);
  return children[2 * static_cast<size_t>(i) + side];
}

}  // namespace

int32_t FlatEnsemble::Leaf(size_t t, const double* x) const {
  const int32_t* ch = children_.data();
  const int32_t* ft = feature_.data();
  const double* th = threshold_.data();
  int32_t i = offsets_[t];
  for (int d = depth_[t]; d > 0; --d) i = Step(ch, ft, th, x, i);
  return i;
}

void FlatEnsemble::AccumulateRange(size_t t, const Matrix& x, size_t begin,
                                   size_t end, double scale,
                                   std::vector<double>* out) const {
  const int32_t* ch = children_.data();
  const int32_t* ft = feature_.data();
  const double* th = threshold_.data();
  const double* val = value_.data();
  const int32_t tree_root = offsets_[t];
  const int tree_depth = depth_[t];
  double* o = out->data();

  // Interleaved cursors: kCursors rows descend in lockstep, so kCursors
  // independent dependent-load chains overlap instead of serializing.
  // Every cursor runs the same fixed `tree_depth` steps (leaves
  // self-loop), which is what makes the lockstep interleave valid and
  // leaves the comparison select as the only data-dependent operation.
  constexpr size_t kCursors = 32;
  size_t i = begin;
  for (; i + kCursors <= end; i += kCursors) {
    const double* rows[kCursors];
    int32_t idx[kCursors];
    for (size_t g = 0; g < kCursors; ++g) {
      rows[g] = x.RowPtr(i + g);
      idx[g] = tree_root;
    }
    for (int d = tree_depth; d > 0; --d)
      for (size_t g = 0; g < kCursors; ++g)
        idx[g] = Step(ch, ft, th, rows[g], idx[g]);
    for (size_t g = 0; g < kCursors; ++g) o[i + g] += scale * val[idx[g]];
  }
  for (; i < end; ++i) o[i] += scale * val[Leaf(t, x.RowPtr(i))];
}

void FlatEnsemble::AccumulateTree(size_t t, const Matrix& x, double scale,
                                  std::vector<double>* out) const {
  AccumulateRange(t, x, 0, x.rows(), scale, out);
}

void FlatEnsemble::AccumulateAll(const Matrix& x, double scale,
                                 std::vector<double>* out) const {
  // Row blocks outer, trees inner: the block's rows (and its slice of
  // `out`) stay L2-resident while the whole ensemble streams over them
  // once, instead of re-streaming the full row matrix per tree. Per row
  // the trees still accumulate in tree order, so results are bit-identical
  // to the unblocked sweep.
  constexpr size_t kRowBlock = 2048;
  const size_t n = x.rows();
  for (size_t begin = 0; begin < n; begin += kRowBlock) {
    const size_t end = begin + kRowBlock < n ? begin + kRowBlock : n;
    for (size_t t = 0; t < num_trees(); ++t)
      AccumulateRange(t, x, begin, end, scale, out);
  }
}

}  // namespace xai
