#ifndef XAIDB_MODEL_SERIALIZE_H_
#define XAIDB_MODEL_SERIALIZE_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "model/decision_tree.h"
#include "model/gbdt.h"
#include "model/knn.h"
#include "model/linear_regression.h"
#include "model/logistic_regression.h"
#include "model/naive_bayes.h"

namespace xai {

/// Plain-text model persistence ("xaidb_model v1" format): line-oriented,
/// whitespace-separated, full double precision (setprecision 17, so every
/// double round-trips exactly and save -> load -> save is byte-stable).
/// Lets a trained model move between processes (train once, explain
/// elsewhere) without any binary compatibility concerns.
///
/// Tree models round-trip through `FromParts`, which rejects a malformed
/// tree (no nodes, a child link that is out of range or points backwards,
/// a split feature >= num_features) with InvalidArgument and recompiles
/// the FlatEnsemble serving form — a loaded model predicts and explains
/// bit-identically to the one that was saved.

/// Saves any built-in model through its base-class reference, dispatching
/// on the concrete type. Every fitted model the library can construct
/// (linear, logistic, gbdt, dtree, forest, knn, nbayes) is supported;
/// adapters like LambdaModel have no artifact form and are rejected with
/// InvalidArgument.
Status SaveModel(const Model& model, const std::string& path);

/// Loads a saved artifact of any kind, dispatching on PeekModelType — the
/// inverse of the polymorphic SaveModel above. The returned model is the
/// exact concrete type that was saved (dynamic_cast recovers it).
Result<std::unique_ptr<Model>> LoadAnyModel(const std::string& path);

/// Typed loaders, for callers that need the concrete type's API (tree
/// access, sufficient statistics, ...). Each rejects artifacts of any
/// other kind with InvalidArgument.
Result<LinearRegression> LoadLinearRegression(const std::string& path);
Result<LogisticRegression> LoadLogisticRegression(const std::string& path);
Result<GradientBoostedTrees> LoadGbdt(const std::string& path);
Result<DecisionTree> LoadDecisionTree(const std::string& path);
Result<RandomForest> LoadRandomForest(const std::string& path);
Result<KnnClassifier> LoadKnn(const std::string& path);
Result<MultinomialNaiveBayes> LoadNaiveBayes(const std::string& path);

/// The `type` field of a saved model file ("linear", "logistic", "gbdt",
/// "dtree", "forest", "knn", "nbayes") without loading it — for dispatch.
Result<std::string> PeekModelType(const std::string& path);

/// The artifact type string SaveModel would write for this model, or
/// InvalidArgument for models with no artifact form. The registry stores
/// this as the manifest `kind` and cross-checks it against PeekModelType
/// at load time.
Result<std::string> ModelKindOf(const Model& model);

}  // namespace xai

#endif  // XAIDB_MODEL_SERIALIZE_H_
