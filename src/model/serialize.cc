#include "model/serialize.h"

#include <fstream>
#include <iomanip>
#include <sstream>

namespace xai {
namespace {

constexpr char kMagic[] = "xaidb_model v1";

Status OpenForWrite(const std::string& path, std::ofstream* out) {
  out->open(path);
  if (!*out) return Status::IOError("cannot open for write: " + path);
  *out << std::setprecision(17);
  *out << kMagic << "\n";
  return Status::OK();
}

Result<std::ifstream> OpenForRead(const std::string& path,
                                  const std::string& expected_type) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for read: " + path);
  std::string line;
  if (!std::getline(in, line) || line != kMagic)
    return Status::InvalidArgument("bad magic in " + path);
  std::string kw;
  std::string type;
  in >> kw >> type;
  if (kw != "type" || type != expected_type)
    return Status::InvalidArgument("expected type " + expected_type +
                                   ", found " + type);
  return in;
}

void WriteTree(std::ofstream& out, const Tree& tree) {
  out << "tree " << tree.nodes.size() << "\n";
  for (const TreeNode& n : tree.nodes) {
    out << n.feature << " " << n.threshold << " " << n.left << " "
        << n.right << " " << n.value << " " << n.cover << "\n";
  }
}

// Reads one tree's nodes. Its structure is checked by Tree::Validate in the
// FromParts every tree loader returns through.
Result<Tree> ReadTree(std::ifstream& in) {
  std::string kw;
  size_t n_nodes = 0;
  in >> kw >> n_nodes;
  if (kw != "tree" || !in)
    return Status::InvalidArgument("malformed tree header");
  if (n_nodes > 10'000'000)
    return Status::InvalidArgument("implausible tree size");
  Tree tree;
  tree.nodes.resize(n_nodes);
  for (TreeNode& node : tree.nodes) {
    in >> node.feature >> node.threshold >> node.left >> node.right >>
        node.value >> node.cover;
    if (!in) return Status::InvalidArgument("malformed tree node");
  }
  return tree;
}

// Per-kind writers. The public entry point is the polymorphic
// SaveModel(const Model&) below; these carry the wire format.

Status SaveLinear(const LinearRegression& model, const std::string& path) {
  std::ofstream out;
  XAI_RETURN_NOT_OK(OpenForWrite(path, &out));
  out << "type linear\n";
  out << "lambda " << model.lambda() << "\n";
  out << "intercept " << model.intercept() << "\n";
  out << "weights " << model.weights().size();
  for (double w : model.weights()) out << " " << w;
  out << "\n";
  return out ? Status::OK() : Status::IOError("write failed: " + path);
}

Status SaveLogistic(const LogisticRegression& model, const std::string& path) {
  std::ofstream out;
  XAI_RETURN_NOT_OK(OpenForWrite(path, &out));
  out << "type logistic\n";
  out << "lambda " << model.lambda() << "\n";
  out << "theta " << model.theta().size();
  for (double t : model.theta()) out << " " << t;
  out << "\n";
  return out ? Status::OK() : Status::IOError("write failed: " + path);
}

Status SaveGbdt(const GradientBoostedTrees& model, const std::string& path) {
  std::ofstream out;
  XAI_RETURN_NOT_OK(OpenForWrite(path, &out));
  out << "type gbdt\n";
  out << "loss "
      << (model.loss() == GbdtLoss::kLogistic ? "logistic" : "squared")
      << "\n";
  out << "base_score " << model.base_score() << "\n";
  out << "learning_rate " << model.learning_rate() << "\n";
  out << "num_features " << model.num_features() << "\n";
  out << "num_trees " << model.trees().size() << "\n";
  for (const Tree& t : model.trees()) WriteTree(out, t);
  return out ? Status::OK() : Status::IOError("write failed: " + path);
}

Status SaveDtree(const DecisionTree& model, const std::string& path) {
  std::ofstream out;
  XAI_RETURN_NOT_OK(OpenForWrite(path, &out));
  out << "type dtree\n";
  out << "num_features " << model.num_features() << "\n";
  WriteTree(out, model.tree());
  return out ? Status::OK() : Status::IOError("write failed: " + path);
}

Status SaveForest(const RandomForest& model, const std::string& path) {
  std::ofstream out;
  XAI_RETURN_NOT_OK(OpenForWrite(path, &out));
  out << "type forest\n";
  out << "num_features " << model.num_features() << "\n";
  out << "num_trees " << model.trees().size() << "\n";
  for (const Tree& t : model.trees()) WriteTree(out, t);
  return out ? Status::OK() : Status::IOError("write failed: " + path);
}

// kNN's parameters are the training set itself, schema included so the
// loaded Dataset is whole (KNN-Shapley valuation reads it). Feature names
// and category labels are written as whitespace-delimited tokens — names
// with embedded whitespace have no artifact form.
Status SaveKnn(const KnnClassifier& model, const std::string& path) {
  const Dataset& train = model.train();
  for (const FeatureSpec& spec : train.schema().features()) {
    if (spec.name.find_first_of(" \t\n") != std::string::npos)
      return Status::InvalidArgument(
          "knn artifact: feature name contains whitespace: " + spec.name);
    for (const std::string& cat : spec.categories)
      if (cat.find_first_of(" \t\n") != std::string::npos)
        return Status::InvalidArgument(
            "knn artifact: category contains whitespace: " + cat);
  }
  std::ofstream out;
  XAI_RETURN_NOT_OK(OpenForWrite(path, &out));
  out << "type knn\n";
  out << "k " << model.k() << "\n";
  out << "num_rows " << train.n() << "\n";
  out << "num_features " << train.d() << "\n";
  out << "schema " << train.schema().num_features() << "\n";
  for (const FeatureSpec& spec : train.schema().features()) {
    if (spec.is_numeric()) {
      out << "num " << spec.name << "\n";
    } else {
      out << "cat " << spec.name << " " << spec.categories.size();
      for (const std::string& cat : spec.categories) out << " " << cat;
      out << "\n";
    }
  }
  out << "labels";
  for (double y : train.y()) out << " " << y;
  out << "\n";
  for (size_t i = 0; i < train.n(); ++i) {
    const double* r = train.x().RowPtr(i);
    for (size_t j = 0; j < train.d(); ++j)
      out << (j == 0 ? "" : " ") << r[j];
    out << "\n";
  }
  return out ? Status::OK() : Status::IOError("write failed: " + path);
}

Status SaveNaiveBayes(const MultinomialNaiveBayes& model,
                      const std::string& path) {
  std::ofstream out;
  XAI_RETURN_NOT_OK(OpenForWrite(path, &out));
  out << "type nbayes\n";
  out << "prior_log_odds " << model.prior_log_odds() << "\n";
  out << "llr " << model.log_likelihood_ratios().size();
  for (double v : model.log_likelihood_ratios()) out << " " << v;
  out << "\n";
  return out ? Status::OK() : Status::IOError("write failed: " + path);
}

}  // namespace

Status SaveModel(const Model& model, const std::string& path) {
  if (const auto* m = dynamic_cast<const GradientBoostedTrees*>(&model))
    return SaveGbdt(*m, path);
  if (const auto* m = dynamic_cast<const DecisionTree*>(&model))
    return SaveDtree(*m, path);
  if (const auto* m = dynamic_cast<const RandomForest*>(&model))
    return SaveForest(*m, path);
  if (const auto* m = dynamic_cast<const LinearRegression*>(&model))
    return SaveLinear(*m, path);
  if (const auto* m = dynamic_cast<const LogisticRegression*>(&model))
    return SaveLogistic(*m, path);
  if (const auto* m = dynamic_cast<const KnnClassifier*>(&model))
    return SaveKnn(*m, path);
  if (const auto* m = dynamic_cast<const MultinomialNaiveBayes*>(&model))
    return SaveNaiveBayes(*m, path);
  return Status::InvalidArgument(
      "model has no artifact form (not a built-in fitted model)");
}

Result<std::string> ModelKindOf(const Model& model) {
  if (dynamic_cast<const GradientBoostedTrees*>(&model)) return {"gbdt"};
  if (dynamic_cast<const DecisionTree*>(&model)) return {"dtree"};
  if (dynamic_cast<const RandomForest*>(&model)) return {"forest"};
  if (dynamic_cast<const LinearRegression*>(&model)) return {"linear"};
  if (dynamic_cast<const LogisticRegression*>(&model)) return {"logistic"};
  if (dynamic_cast<const KnnClassifier*>(&model)) return {"knn"};
  if (dynamic_cast<const MultinomialNaiveBayes*>(&model)) return {"nbayes"};
  return Status::InvalidArgument(
      "model has no artifact form (not a built-in fitted model)");
}

Result<LinearRegression> LoadLinearRegression(const std::string& path) {
  XAI_ASSIGN_OR_RETURN(std::ifstream in, OpenForRead(path, "linear"));
  std::string kw;
  double lambda = 0.0;
  double intercept = 0.0;
  size_t n = 0;
  in >> kw >> lambda >> kw >> intercept >> kw >> n;
  if (!in || n > 10'000'000)
    return Status::InvalidArgument("malformed linear model");
  std::vector<double> weights(n);
  for (double& w : weights) in >> w;
  if (!in) return Status::InvalidArgument("malformed weights");
  return LinearRegression::FromParameters(std::move(weights), intercept,
                                          lambda);
}

Result<LogisticRegression> LoadLogisticRegression(const std::string& path) {
  XAI_ASSIGN_OR_RETURN(std::ifstream in, OpenForRead(path, "logistic"));
  std::string kw;
  double lambda = 0.0;
  size_t n = 0;
  in >> kw >> lambda >> kw >> n;
  if (!in || n == 0 || n > 10'000'000)
    return Status::InvalidArgument("malformed logistic model");
  std::vector<double> theta(n);
  for (double& t : theta) in >> t;
  if (!in) return Status::InvalidArgument("malformed theta");
  return LogisticRegression::FromParameters(std::move(theta), lambda);
}

Result<GradientBoostedTrees> LoadGbdt(const std::string& path) {
  XAI_ASSIGN_OR_RETURN(std::ifstream in, OpenForRead(path, "gbdt"));
  std::string kw;
  std::string loss_name;
  double base = 0.0;
  double lr = 0.0;
  size_t num_features = 0;
  size_t num_trees = 0;
  in >> kw >> loss_name >> kw >> base >> kw >> lr >> kw >> num_features >>
      kw >> num_trees;
  if (!in || num_trees > 1'000'000)
    return Status::InvalidArgument("malformed gbdt header");
  std::vector<Tree> trees;
  trees.reserve(num_trees);
  for (size_t t = 0; t < num_trees; ++t) {
    XAI_ASSIGN_OR_RETURN(Tree tree, ReadTree(in));
    trees.push_back(std::move(tree));
  }
  const GbdtLoss loss =
      loss_name == "logistic" ? GbdtLoss::kLogistic : GbdtLoss::kSquared;
  return GradientBoostedTrees::FromParts(std::move(trees), base, lr, loss,
                                         num_features);
}

Result<DecisionTree> LoadDecisionTree(const std::string& path) {
  XAI_ASSIGN_OR_RETURN(std::ifstream in, OpenForRead(path, "dtree"));
  std::string kw;
  size_t num_features = 0;
  in >> kw >> num_features;
  if (!in || kw != "num_features")
    return Status::InvalidArgument("malformed dtree header");
  XAI_ASSIGN_OR_RETURN(Tree tree, ReadTree(in));
  return DecisionTree::FromParts(std::move(tree), num_features);
}

Result<RandomForest> LoadRandomForest(const std::string& path) {
  XAI_ASSIGN_OR_RETURN(std::ifstream in, OpenForRead(path, "forest"));
  std::string kw;
  size_t num_features = 0;
  size_t num_trees = 0;
  in >> kw >> num_features >> kw >> num_trees;
  if (!in || num_trees == 0 || num_trees > 1'000'000)
    return Status::InvalidArgument("malformed forest header");
  std::vector<Tree> trees;
  trees.reserve(num_trees);
  for (size_t t = 0; t < num_trees; ++t) {
    XAI_ASSIGN_OR_RETURN(Tree tree, ReadTree(in));
    trees.push_back(std::move(tree));
  }
  return RandomForest::FromParts(std::move(trees), num_features);
}

Result<KnnClassifier> LoadKnn(const std::string& path) {
  XAI_ASSIGN_OR_RETURN(std::ifstream in, OpenForRead(path, "knn"));
  std::string kw;
  int k = 0;
  size_t n = 0;
  size_t d = 0;
  size_t n_specs = 0;
  in >> kw >> k >> kw >> n >> kw >> d >> kw >> n_specs;
  if (!in || k <= 0 || n == 0 || n > 10'000'000 || d > 1'000'000 ||
      n_specs > 1'000'000)
    return Status::InvalidArgument("malformed knn header");
  std::vector<FeatureSpec> specs;
  specs.reserve(n_specs);
  for (size_t j = 0; j < n_specs; ++j) {
    std::string tag;
    std::string name;
    in >> tag >> name;
    if (!in) return Status::InvalidArgument("malformed knn schema");
    if (tag == "num") {
      specs.push_back(FeatureSpec::Numeric(std::move(name)));
    } else if (tag == "cat") {
      size_t n_cats = 0;
      in >> n_cats;
      if (!in || n_cats > 1'000'000)
        return Status::InvalidArgument("malformed knn schema");
      std::vector<std::string> cats(n_cats);
      for (std::string& cat : cats) in >> cat;
      if (!in) return Status::InvalidArgument("malformed knn schema");
      specs.push_back(FeatureSpec::Categorical(std::move(name),
                                               std::move(cats)));
    } else {
      return Status::InvalidArgument("malformed knn schema tag: " + tag);
    }
  }
  in >> kw;
  if (!in || kw != "labels")
    return Status::InvalidArgument("malformed knn labels");
  std::vector<double> y(n);
  for (double& v : y) in >> v;
  Matrix x(n, d);
  for (size_t i = 0; i < n; ++i)
    for (size_t j = 0; j < d; ++j) in >> x(i, j);
  if (!in) return Status::InvalidArgument("malformed knn rows");
  return KnnClassifier::FromParts(
      Dataset(Schema(std::move(specs)), std::move(x), std::move(y)), k);
}

Result<MultinomialNaiveBayes> LoadNaiveBayes(const std::string& path) {
  XAI_ASSIGN_OR_RETURN(std::ifstream in, OpenForRead(path, "nbayes"));
  std::string kw;
  double prior = 0.0;
  size_t n = 0;
  in >> kw >> prior >> kw >> n;
  if (!in || n == 0 || n > 10'000'000)
    return Status::InvalidArgument("malformed nbayes model");
  std::vector<double> llr(n);
  for (double& v : llr) in >> v;
  if (!in) return Status::InvalidArgument("malformed llr");
  return MultinomialNaiveBayes::FromParts(std::move(llr), prior);
}

Result<std::unique_ptr<Model>> LoadAnyModel(const std::string& path) {
  XAI_ASSIGN_OR_RETURN(std::string type, PeekModelType(path));
  if (type == "linear") {
    XAI_ASSIGN_OR_RETURN(LinearRegression m, LoadLinearRegression(path));
    return std::unique_ptr<Model>(new LinearRegression(std::move(m)));
  }
  if (type == "logistic") {
    XAI_ASSIGN_OR_RETURN(LogisticRegression m, LoadLogisticRegression(path));
    return std::unique_ptr<Model>(new LogisticRegression(std::move(m)));
  }
  if (type == "gbdt") {
    XAI_ASSIGN_OR_RETURN(GradientBoostedTrees m, LoadGbdt(path));
    return std::unique_ptr<Model>(new GradientBoostedTrees(std::move(m)));
  }
  if (type == "dtree") {
    XAI_ASSIGN_OR_RETURN(DecisionTree m, LoadDecisionTree(path));
    return std::unique_ptr<Model>(new DecisionTree(std::move(m)));
  }
  if (type == "forest") {
    XAI_ASSIGN_OR_RETURN(RandomForest m, LoadRandomForest(path));
    return std::unique_ptr<Model>(new RandomForest(std::move(m)));
  }
  if (type == "knn") {
    XAI_ASSIGN_OR_RETURN(KnnClassifier m, LoadKnn(path));
    return std::unique_ptr<Model>(new KnnClassifier(std::move(m)));
  }
  if (type == "nbayes") {
    XAI_ASSIGN_OR_RETURN(MultinomialNaiveBayes m, LoadNaiveBayes(path));
    return std::unique_ptr<Model>(new MultinomialNaiveBayes(std::move(m)));
  }
  return Status::InvalidArgument("unknown model type '" + type + "' in " +
                                 path);
}

Result<std::string> PeekModelType(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open for read: " + path);
  std::string line;
  if (!std::getline(in, line) || line != kMagic)
    return Status::InvalidArgument("bad magic in " + path);
  std::string kw;
  std::string type;
  in >> kw >> type;
  if (kw != "type" || type.empty())
    return Status::InvalidArgument("missing type in " + path);
  return type;
}

}  // namespace xai
