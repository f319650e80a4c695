// Unit tests for the benchmark's own arithmetic (harness.h): the tail-
// percentile rule, seed determinism of the arrival schedule and request
// mix, the stratified mix, and self time under overlapping parallel
// children.
#include "harness.h"

#include <gtest/gtest.h>

#include <numeric>

namespace perfbench {
namespace {

TEST(TailPercentile, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(TailPercentile(1000), 99);  // rank 990, 10 beyond
  EXPECT_EQ(TailPercentile(999), 95);   // rank 990, only 9 beyond
  EXPECT_EQ(TailPercentile(200), 95);   // rank 190, 10 beyond
  EXPECT_EQ(TailPercentile(199), 90);
  EXPECT_EQ(TailPercentile(100), 90);
  EXPECT_EQ(TailPercentile(40), 75);
  EXPECT_EQ(TailPercentile(20), 50);
  EXPECT_EQ(TailPercentile(19), 100);  // fewer: report the maximum
  EXPECT_EQ(TailPercentile(0), 100);
}

TEST(TailPercentile, SummaryUsesNearestRank) {
  std::vector<double> v(1000);
  std::iota(v.begin(), v.end(), 1.0);  // 1..1000
  const LatencySummary s = Summarize(v);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_EQ(s.p50, 500.0);
  EXPECT_EQ(s.tail_pct, 99);
  EXPECT_EQ(s.tail, 990.0);
  EXPECT_EQ(s.max, 1000.0);
  const LatencySummary few = Summarize({3.0, 1.0, 2.0});
  EXPECT_EQ(few.p50, 2.0);
  EXPECT_EQ(few.tail_pct, 100);
  EXPECT_EQ(few.tail, 3.0);
}

TEST(TailPercentile, WindowedTailIsMedianOfWindowTails) {
  std::vector<std::vector<double>> w(3);
  for (int i = 1; i <= 1000; ++i) {
    w[0].push_back(i);        // p99 990
    w[1].push_back(2.0 * i);  // p99 1980
    w[2].push_back(10.0 * i); // p99 9900: one noisy window
  }
  w[2].push_back(0.0);  // the smallest window (1000) sets the percentile
  const auto [pct, tail] = WindowedTail(w);
  EXPECT_EQ(pct, 99);
  EXPECT_EQ(tail, 1980.0);
  const auto [pct2, tail2] = WindowedTail({{1.0, 2.0}, {3.0, 4.0}});
  EXPECT_EQ(pct2, 100);
  EXPECT_EQ(tail2, 3.0);  // mean of the two window maxima
}

TEST(Schedule, SameSeedSameArrivalsAndRows) {
  const auto a = PoissonArrivals(42, 300.0, 5.0);
  const auto b = PoissonArrivals(42, 300.0, 5.0);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, PoissonArrivals(43, 300.0, 5.0));
  // Mean rate within 10% of the nominal one over 1500 expected arrivals.
  EXPECT_NEAR(static_cast<double>(a.size()), 1500.0, 150.0);
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  EXPECT_LT(a.back(), 5'000'000'000LL);

  size_t fresh_a = 0, fresh_b = 0;
  const auto pa = PlanRequests(42, a, 0.125, 0.25, 16, &fresh_a);
  const auto pb = PlanRequests(42, b, 0.125, 0.25, 16, &fresh_b);
  ASSERT_EQ(pa.size(), pb.size());
  EXPECT_EQ(fresh_a, fresh_b);
  size_t hot = 0, tree = 0, next_fresh = 0;
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].due_ns, pb[i].due_ns);
    EXPECT_EQ(pa[i].tree_shap, pb[i].tree_shap);
    EXPECT_EQ(pa[i].hot, pb[i].hot);
    EXPECT_EQ(pa[i].row, pb[i].row);
    if (pa[i].hot) {
      ++hot;
      EXPECT_LT(pa[i].row, 16u);
    } else {
      EXPECT_EQ(pa[i].row, next_fresh++);  // fresh rows are never reused
    }
    tree += pa[i].tree_shap;
  }
  // Exact shares: 2 hot and 1 TreeSHAP per group of 8, and as many of
  // those as fit in a trailing partial group.
  const size_t groups = pa.size() / kMixGroup, rest = pa.size() % kMixGroup;
  EXPECT_EQ(hot, 2 * groups + std::min<size_t>(2, rest));
  EXPECT_EQ(tree, groups + std::min<size_t>(1, rest));
}

TEST(Schedule, MixIsStratifiedPerGroup) {
  const auto a = PoissonArrivals(7, 300.0, 2.0);
  size_t fresh = 0;
  const auto p = PlanRequests(7, a, 0.125, 0.25, 16, &fresh);
  for (size_t g = 0; g + kMixGroup <= p.size(); g += kMixGroup) {
    size_t hot = 0, tree = 0;
    for (size_t i = g; i < g + kMixGroup; ++i) {
      hot += p[i].hot;
      tree += p[i].tree_shap;
    }
    EXPECT_EQ(hot, 2u) << "group at " << g;
    EXPECT_EQ(tree, 1u) << "group at " << g;
  }
  // The positions vary from group to group.
  size_t first_tree_at_zero = 0;
  for (size_t g = 0; g + kMixGroup <= p.size(); g += kMixGroup)
    first_tree_at_zero += p[g].tree_shap;
  EXPECT_GT(first_tree_at_zero, 0u);
  EXPECT_LT(first_tree_at_zero, p.size() / kMixGroup);
}

TEST(SelfTime, OverlappingParallelChildrenCountOnce) {
  // Parent [0, 100); children [10, 50) and [30, 70) run in parallel and
  // cover [10, 70) together; [80, 90) is a third; [95, 120) sticks out of
  // the parent and only its [95, 100) part counts.
  std::vector<Span> spans = {
      {"e2e.op", 0, 100, -1, 1},    {"model.a", 10, 50, 0, 1},
      {"model.b", 30, 70, 0, 1},    {"feature.c", 80, 90, 0, 1},
      {"feature.d", 95, 120, 0, 1},
  };
  const std::vector<int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - 60 - 10 - 5);
  EXPECT_EQ(self[1], 40);
  EXPECT_EQ(UnionLength({{10, 50}, {30, 70}, {80, 90}}, 0, 100), 70);

  const auto table = LayerTable(spans);
  double total = 0.0, model = 0.0, feature = 0.0, un = 0.0;
  for (const auto& [name, ns] : table) {
    total += ns;
    if (name == "model") model = ns;
    if (name == "feature") feature = ns;
    if (name == "unattributed") un = ns;
  }
  EXPECT_DOUBLE_EQ(total, 100.0);  // the table sums to the root duration
  EXPECT_DOUBLE_EQ(un, 25.0);
  // 75 ns of covered time shared in proportion to the 95 ns the children
  // spend inside the parent: model 80/95, feature 15/95.
  EXPECT_DOUBLE_EQ(model, 75.0 * 80.0 / 95.0);
  EXPECT_DOUBLE_EQ(feature, 75.0 * 15.0 / 95.0);
}

TEST(SelfTime, NestedSpansSumToRoot) {
  std::vector<Span> spans = {
      {"e2e.request", 0, 1000, -1, 7},
      {"serve.queue", 0, 200, 0, 7},
      {"feature.kernelshap", 200, 900, 0, 7},
      {"model.predict", 250, 650, 2, 0},
      {"model.predict", 300, 700, 2, 0},  // a second worker thread
  };
  double total = 0.0, model = 0.0, feature = 0.0, serve = 0.0;
  for (const auto& [name, ns] : LayerTable(spans)) {
    total += ns;
    if (name == "model") model = ns;
    if (name == "feature") feature = ns;
    if (name == "serve") serve = ns;
  }
  EXPECT_DOUBLE_EQ(total, 1000.0);
  EXPECT_DOUBLE_EQ(serve, 200.0);
  EXPECT_DOUBLE_EQ(model, 450.0);    // union [250, 700)
  EXPECT_DOUBLE_EQ(feature, 250.0);  // 700 - 450
}

}  // namespace
}  // namespace perfbench
