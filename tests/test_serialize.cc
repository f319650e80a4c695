#include <gtest/gtest.h>

#include <cstdio>
#include <limits>
#include <string>

#include "data/synthetic.h"
#include "feature/tree_shap.h"
#include "model/serialize.h"

namespace xai {
namespace {

TEST(Serialize, LinearRoundTrip) {
  std::vector<double> w;
  Dataset ds = MakeLinearRegressionDataset(200, 5, 3, &w);
  auto model = LinearRegression::Fit(ds);
  ASSERT_TRUE(model.ok());
  const std::string path = "/tmp/xai_model_linear.txt";
  ASSERT_TRUE(SaveModel(*model, path).ok());
  EXPECT_EQ(*PeekModelType(path), "linear");
  auto loaded = LoadLinearRegression(path);
  ASSERT_TRUE(loaded.ok());
  for (size_t i = 0; i < 10; ++i)
    EXPECT_DOUBLE_EQ(loaded->Predict(ds.row(i)), model->Predict(ds.row(i)));
  EXPECT_DOUBLE_EQ(loaded->lambda(), model->lambda());
  std::remove(path.c_str());
}

TEST(Serialize, LogisticRoundTrip) {
  Dataset ds = MakeGaussianDataset(300, {.seed = 5, .dims = 4});
  auto model = LogisticRegression::Fit(ds, {.lambda = 0.01});
  ASSERT_TRUE(model.ok());
  const std::string path = "/tmp/xai_model_logistic.txt";
  ASSERT_TRUE(SaveModel(*model, path).ok());
  EXPECT_EQ(*PeekModelType(path), "logistic");
  auto loaded = LoadLogisticRegression(path);
  ASSERT_TRUE(loaded.ok());
  for (size_t i = 0; i < 10; ++i)
    EXPECT_DOUBLE_EQ(loaded->Predict(ds.row(i)), model->Predict(ds.row(i)));
  std::remove(path.c_str());
}

TEST(Serialize, GbdtRoundTripBitExact) {
  Dataset ds = MakeLoanDataset(800);
  auto model = GradientBoostedTrees::Fit(ds, {.num_rounds = 25});
  ASSERT_TRUE(model.ok());
  const std::string path = "/tmp/xai_model_gbdt.txt";
  ASSERT_TRUE(SaveModel(*model, path).ok());
  EXPECT_EQ(*PeekModelType(path), "gbdt");
  auto loaded = LoadGbdt(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->trees().size(), model->trees().size());
  EXPECT_EQ(loaded->num_features(), model->num_features());
  for (size_t i = 0; i < 30; ++i) {
    EXPECT_DOUBLE_EQ(loaded->Predict(ds.row(i)), model->Predict(ds.row(i)));
    EXPECT_DOUBLE_EQ(loaded->PredictMargin(ds.row(i)),
                     model->PredictMargin(ds.row(i)));
  }
  std::remove(path.c_str());
}

TEST(Serialize, LoadedGbdtExplainsIdentically) {
  // The whole point of persistence: explanations after reload match.
  Dataset ds = MakeLoanDataset(600);
  auto model = GradientBoostedTrees::Fit(ds, {.num_rounds = 20});
  ASSERT_TRUE(model.ok());
  const std::string path = "/tmp/xai_model_gbdt2.txt";
  ASSERT_TRUE(SaveModel(*model, path).ok());
  auto loaded = LoadGbdt(path);
  ASSERT_TRUE(loaded.ok());
  TreeShapExplainer e1(*model, ds.schema());
  TreeShapExplainer e2(*loaded, ds.schema());
  auto a1 = e1.Explain(ds.row(2));
  auto a2 = e2.Explain(ds.row(2));
  ASSERT_TRUE(a1.ok() && a2.ok());
  for (size_t j = 0; j < ds.d(); ++j)
    EXPECT_DOUBLE_EQ(a1->values[j], a2->values[j]);
  std::remove(path.c_str());
}

TEST(Serialize, RejectsGarbage) {
  const std::string path = "/tmp/xai_model_garbage.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("not a model\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadGbdt(path).ok());
  EXPECT_FALSE(PeekModelType(path).ok());
  EXPECT_FALSE(LoadGbdt("/nonexistent/m.txt").ok());
  // Wrong type dispatch.
  Dataset ds = MakeGaussianDataset(100, {.seed = 1, .dims = 2});
  auto model = LogisticRegression::Fit(ds);
  ASSERT_TRUE(model.ok());
  ASSERT_TRUE(SaveModel(*model, path).ok());
  EXPECT_FALSE(LoadGbdt(path).ok());
  EXPECT_TRUE(LoadLogisticRegression(path).ok());
  std::remove(path.c_str());
}

// Malformed tree artifacts: every one must come back as a typed
// InvalidArgument from the loader, never an overflow, a hang or a null
// dereference.
Result<std::unique_ptr<Model>> LoadArtifact(const std::string& body) {
  const std::string path = "/tmp/xai_model_hand_written_tree.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs(("xaidb_model v1\n" + body).c_str(), f);
    std::fclose(f);
  }
  auto loaded = LoadAnyModel(path);
  std::remove(path.c_str());
  return loaded;
}

TEST(Serialize, RejectsOutOfRangeChildIndex) {
  // Child index 7 in a 3-node tree.
  const Status st = LoadArtifact(
      "type dtree\nnum_features 2\ntree 3\n"
      "0 0.5 1 7 0 10\n-1 0 -1 -1 1 5\n-1 0 -1 -1 2 5\n").status();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
}

TEST(Serialize, RejectsRootThatIsItsOwnChild) {
  const Status st = LoadArtifact(
      "type dtree\nnum_features 2\ntree 3\n"
      "0 0.5 0 2 0 10\n-1 0 -1 -1 1 5\n-1 0 -1 -1 2 5\n").status();
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
}

TEST(Serialize, RejectsEmptyTree) {
  const Status dtree =
      LoadArtifact("type dtree\nnum_features 2\ntree 0\n").status();
  EXPECT_EQ(dtree.code(), StatusCode::kInvalidArgument) << dtree.ToString();
  const Status gbdt = LoadArtifact(
      "type gbdt\nloss logistic\nbase_score 0\nlearning_rate 0.1\n"
      "num_features 2\nnum_trees 1\ntree 0\n").status();
  EXPECT_EQ(gbdt.code(), StatusCode::kInvalidArgument) << gbdt.ToString();
}

TEST(Serialize, RejectsBackwardLinkFeatureRangeAndSharedChild) {
  // A child pointing back at an earlier node would allow a cycle.
  EXPECT_EQ(LoadArtifact("type forest\nnum_features 2\nnum_trees 1\n"
                         "tree 3\n0 0.5 1 2 0 10\n1 0.5 0 2 1 5\n"
                         "-1 0 -1 -1 2 5\n")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Split feature 2 of a 2-feature model.
  EXPECT_EQ(LoadArtifact("type dtree\nnum_features 2\ntree 3\n"
                         "2 0.5 1 2 0 10\n-1 0 -1 -1 1 5\n"
                         "-1 0 -1 -1 2 5\n")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Both links of the root name the same child.
  EXPECT_EQ(LoadArtifact("type dtree\nnum_features 2\ntree 3\n"
                         "0 0.5 1 1 0 10\n-1 0 -1 -1 1 5\n"
                         "-1 0 -1 -1 2 5\n")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // The well-formed version of the same tree loads and predicts.
  auto loaded = LoadArtifact(
      "type dtree\nnum_features 2\ntree 3\n"
      "0 0.5 1 2 0 10\n-1 0 -1 -1 1 5\n-1 0 -1 -1 2 5\n");
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->Predict({0.2, 0.0}), 1.0);
  EXPECT_EQ((*loaded)->Predict({0.9, 0.0}), 2.0);
}

TEST(Serialize, FromPartsValidatesTrees) {
  Tree cyclic;
  cyclic.nodes.resize(3);
  cyclic.nodes[0] = {.feature = 0, .threshold = 0.5, .left = 0, .right = 2,
                     .value = 0.0, .cover = 10.0};
  cyclic.nodes[1].value = 1.0;
  cyclic.nodes[2].value = 2.0;
  EXPECT_EQ(DecisionTree::FromParts(cyclic, 2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RandomForest::FromParts({cyclic}, 2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(RandomForest::FromParts({}, 2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(GradientBoostedTrees::FromParts({Tree{}}, 0.0, 0.1,
                                            GbdtLoss::kLogistic, 2)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  Tree ok = cyclic;
  ok.nodes[0].left = 1;
  EXPECT_TRUE(ok.Validate(2).ok());
  EXPECT_EQ(ok.Validate(0).code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(DecisionTree::FromParts(ok, 2).ok());
}

TEST(Serialize, RejectsNonFiniteValuesAndNegativeCover) {
  // TreeSHAP and TreePathGame divide by cover, so a bad threshold, value
  // or cover must stop at the loader instead of surfacing as NaN
  // attributions.
  Tree good;
  good.nodes.resize(3);
  good.nodes[0] = {.feature = 0, .threshold = 0.5, .left = 1, .right = 2,
                   .value = 0.0, .cover = 10.0};
  good.nodes[1] = {.feature = -1, .threshold = 0.0, .left = -1, .right = -1,
                   .value = 1.0, .cover = 6.0};
  good.nodes[2] = {.feature = -1, .threshold = 0.0, .left = -1, .right = -1,
                   .value = 2.0, .cover = 4.0};
  ASSERT_TRUE(good.Validate(2).ok());
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    size_t node;
    double TreeNode::*field;
    double bad;
  };
  const Case cases[] = {
      {0, &TreeNode::threshold, nan}, {0, &TreeNode::threshold, inf},
      {1, &TreeNode::value, nan},     {1, &TreeNode::value, -inf},
      {0, &TreeNode::cover, nan},     {2, &TreeNode::cover, inf},
      {2, &TreeNode::cover, -1.0},    {1, &TreeNode::cover, -0.5},
  };
  for (const Case& c : cases) {
    Tree bad = good;
    bad.nodes[c.node].*c.field = c.bad;
    const Status st = bad.Validate(2);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << "node " << c.node;
    EXPECT_NE(st.ToString().find("tree node " + std::to_string(c.node)),
              std::string::npos)
        << st.ToString();
    EXPECT_EQ(DecisionTree::FromParts(bad, 2).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(GradientBoostedTrees::FromParts({bad}, 0.0, 0.1,
                                              GbdtLoss::kLogistic, 2)
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
  }
  // A zero cover is allowed (a fit never produces one below a split, but
  // it is not malformed on its own).
  Tree zero = good;
  zero.nodes[2].cover = 0.0;
  EXPECT_TRUE(zero.Validate(2).ok());

  // The same through a text artifact: leaf 2 with cover -1.
  const Status dtree = LoadArtifact(
      "type dtree\nnum_features 2\ntree 3\n"
      "0 0.5 1 2 0 10\n-1 0 -1 -1 1 5\n-1 0 -1 -1 2 -1\n").status();
  EXPECT_EQ(dtree.code(), StatusCode::kInvalidArgument) << dtree.ToString();
  EXPECT_NE(dtree.ToString().find("tree node 2"), std::string::npos)
      << dtree.ToString();
  const Status gbdt = LoadArtifact(
      "type gbdt\nloss logistic\nbase_score 0\nlearning_rate 0.1\n"
      "num_features 2\nnum_trees 1\ntree 3\n"
      "0 0.5 1 2 0 10\n-1 0 -1 -1 1 5\n-1 0 -1 -1 2 -1\n").status();
  EXPECT_EQ(gbdt.code(), StatusCode::kInvalidArgument) << gbdt.ToString();
}

}  // namespace
}  // namespace xai
