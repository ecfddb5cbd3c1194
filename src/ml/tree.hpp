// CART regression tree: the fitted node array and its scalar walk.
//
// Trees are grown only by RandomForest::fit (forest.hpp states the split
// rule, the pinned row order and the oracle the fitter is tested against);
// a DecisionTree is what that fitter emits and what from_json() parses, and
// the forest flattens it into its arena.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/json.hpp"

namespace acclaim::ml {

using FeatureRow = std::vector<double>;

struct TreeParams {
  int max_depth = 32;
  int min_samples_leaf = 1;
  int min_samples_split = 2;
  /// Features considered per split; -1 means all (scikit default for
  /// regression forests).
  int max_features = -1;
};

/// A fitted regression tree: a node array with the root at index 0.
/// RandomForest::fit grows these (every split is the one CART's variance
/// reduction picks, see forest.hpp) and flattens them into its arena;
/// predict() is the scalar node walk the arena kernels are tested against.
class DecisionTree {
 public:
  struct Node {
    int feature = -1;         ///< -1 marks a leaf
    double threshold = 0.0;   ///< go left if x[feature] <= threshold
    std::int32_t left = -1;
    std::int32_t right = -1;
    double value = 0.0;       ///< leaf prediction (mean of samples)
  };

  /// An unfitted tree.
  DecisionTree() = default;

  /// A tree over `n_features` features from its pre-order node array.
  /// Throws InvalidArgument on an empty array, no features, a negative
  /// depth, a split feature out of range or a child index out of range.
  DecisionTree(std::vector<Node> nodes, std::size_t n_features, int depth);

  double predict(const FeatureRow& row) const;

  bool fitted() const noexcept { return !nodes_.empty(); }
  std::size_t node_count() const noexcept { return nodes_.size(); }
  int depth() const noexcept { return depth_; }
  std::size_t n_features() const noexcept { return n_features_; }

  /// Read access to the fitted node array (root at index 0) — the source
  /// RandomForest::from_trees flattens into the forest arena.
  const std::vector<Node>& nodes() const noexcept { return nodes_; }

  /// Parses one tree of RandomForest::to_json()'s document; throws
  /// InvalidArgument/ParseError on malformed documents (bad child indices,
  /// missing fields).
  static DecisionTree from_json(const util::Json& doc);

 private:
  std::vector<Node> nodes_;
  std::size_t n_features_ = 0;
  int depth_ = 0;
};

}  // namespace acclaim::ml
