// CART regression tree.
//
// Splits minimize the weighted sum of child variances (equivalently,
// maximize variance reduction), the criterion scikit-learn's
// DecisionTreeRegressor uses — the paper's model family (§V).
#pragma once

#include <cstddef>
#include <vector>

#include "util/json.hpp"
#include "util/rng.hpp"

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

/// A fitted regression tree. Fit once, then predict; refitting replaces the
/// model. RandomForest fits these and flattens them into its arena;
/// predict() is the scalar node walk the arena kernels are tested against.
class DecisionTree {
 public:
  /// Fits on the rows indexed by `sample_idx` (with repetition allowed — the
  /// forest passes bootstrap samples). All rows must share X[0].size()
  /// features. Throws InvalidArgument on empty/ragged input.
  void fit(const std::vector<FeatureRow>& X, const std::vector<double>& y,
           const std::vector<std::size_t>& sample_idx, const TreeParams& params,
           util::Rng& rng);

  /// Convenience: fit on all rows.
  void fit(const std::vector<FeatureRow>& X, const std::vector<double>& y,
           const TreeParams& params, util::Rng& rng);

  double predict(const FeatureRow& row) const;

  bool fitted() const noexcept { return !nodes_.empty(); }
  std::size_t node_count() const noexcept { return nodes_.size(); }
  int depth() const noexcept { return depth_; }
  std::size_t n_features() const noexcept { return n_features_; }

  struct Node {
    int feature = -1;         ///< -1 marks a leaf
    double threshold = 0.0;   ///< go left if x[feature] <= threshold
    std::int32_t left = -1;
    std::int32_t right = -1;
    double value = 0.0;       ///< leaf prediction (mean of samples)
  };

  /// Read access to the fitted node array (root at index 0) — the source
  /// RandomForest::from_trees flattens into the forest arena.
  const std::vector<Node>& nodes() const noexcept { return nodes_; }

  /// Parses one tree of RandomForest::to_json()'s document; throws
  /// InvalidArgument/ParseError on malformed documents (bad child indices,
  /// missing fields).
  static DecisionTree from_json(const util::Json& doc);

 private:

  std::int32_t build(const std::vector<FeatureRow>& X, const std::vector<double>& y,
                     std::vector<std::size_t>& idx, std::size_t begin, std::size_t end,
                     int depth, const TreeParams& params, util::Rng& rng);

  std::vector<Node> nodes_;
  std::size_t n_features_ = 0;
  int depth_ = 0;
};

}  // namespace acclaim::ml
