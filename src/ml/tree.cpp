#include "ml/tree.hpp"

#include <limits>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace acclaim::ml {

DecisionTree::DecisionTree(std::vector<Node> nodes, std::size_t n_features, int depth)
    : nodes_(std::move(nodes)), n_features_(n_features), depth_(depth) {
  require(!nodes_.empty(), "a tree needs at least one node");
  require(n_features_ >= 1, "a tree needs at least one feature");
  require(depth_ >= 0, "tree depth must be in [0, INT_MAX]");
  const auto n = static_cast<std::int64_t>(nodes_.size());
  for (const Node& node : nodes_) {
    require(node.feature < static_cast<std::int64_t>(n_features_),
            "tree references a feature out of range");
    if (node.feature >= 0) {
      require(node.left >= 0 && node.left < n && node.right >= 0 && node.right < n,
              "tree has child indices out of range");
    }
  }
}

namespace {

/// An integer field narrowed to int32 only after its range is checked.
std::int32_t int32_field(const util::Json& v, const char* field) {
  const std::int64_t i = v.as_int();
  if (i < std::numeric_limits<std::int32_t>::min() ||
      i > std::numeric_limits<std::int32_t>::max()) {
    // Built only on failure: this runs for every node of every loaded model.
    throw InvalidArgument(std::string("serialized tree '") + field +
                          "' value does not fit int32");
  }
  return static_cast<std::int32_t>(i);
}

}  // namespace

DecisionTree DecisionTree::from_json(const util::Json& doc) {
  const std::int32_t n_features = int32_field(doc.at("n_features"), "n_features");
  require(n_features >= 1, "serialized tree must have features");
  const std::int32_t depth = int32_field(doc.at("depth"), "depth");
  const auto& feature = doc.at("feature").as_array();
  const auto& threshold = doc.at("threshold").as_array();
  const auto& left = doc.at("left").as_array();
  const auto& right = doc.at("right").as_array();
  const auto& value = doc.at("value").as_array();
  const std::size_t n = feature.size();
  require(n >= 1 && threshold.size() == n && left.size() == n && right.size() == n &&
              value.size() == n,
          "serialized tree arrays must be non-empty and aligned");
  std::vector<Node> nodes(n);
  for (std::size_t i = 0; i < n; ++i) {
    Node& node = nodes[i];
    node.feature = int32_field(feature[i], "feature");
    node.threshold = threshold[i].as_number();
    node.left = int32_field(left[i], "left");
    node.right = int32_field(right[i], "right");
    node.value = value[i].as_number();
  }
  return DecisionTree(std::move(nodes), static_cast<std::size_t>(n_features), depth);
}

double DecisionTree::predict(const FeatureRow& row) const {
  require(fitted(), "DecisionTree::predict called before fit");
  require(row.size() == n_features_, "feature count mismatch in predict");
  std::int32_t cur = 0;
  while (true) {
    const Node& node = nodes_[static_cast<std::size_t>(cur)];
    if (node.feature < 0) {
      return node.value;
    }
    cur = row[static_cast<std::size_t>(node.feature)] <= node.threshold ? node.left : node.right;
  }
}

}  // namespace acclaim::ml
