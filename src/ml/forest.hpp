// Random forest regressor (bootstrap-aggregated CART trees), held as one
// structure-of-arrays arena.
//
// `DecisionTree` fits each tree as a node-struct vector, but every hop of a
// node-struct walk loads a 32-byte Node to use at most half of it.
// Prediction and per-tree jackknife variance dominate every acquisition
// round (PAPER.md §IV; the fig10/fig12 hot paths), so a forest keeps no
// trees: fit() and from_json() flatten them into one shared arena of
// parallel arrays — split feature, threshold, left child, right child, leaf
// value — and drop them. Every evaluation walks the arena. predict() gives
// one row's mean (the Hunold baseline and predict_log_us use it). The
// batched kernels give per-tree blocks: predict_trees_batch() alone, and
// jackknife_batch(), which every selection and variance sweep runs.
//
// Equivalence contract: flattening copies node fields bit-for-bit and
// preserves node order, traversal uses DecisionTree::predict's
// `x[f] <= threshold` comparison (NaN routes right), and every mean and
// variance accumulates in tree order. Results are therefore bitwise-equal to
// walking the source trees with DecisionTree::predict — enforced by
// tests/test_forest_arena.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/tree.hpp"

namespace acclaim::ml {

struct ForestParams {
  int n_trees = 64;
  bool bootstrap = true;
  TreeParams tree;
};

/// scikit-style RandomForestRegressor: each tree fits a bootstrap resample;
/// the forest predicts the mean of the trees. predict_trees_batch() and
/// jackknife_batch() expose the per-tree predictions the jackknife variance
/// (§IV-A) needs.
class RandomForest {
 public:
  /// Fits params.n_trees trees, tree i on the i-th seed drawn from `seed`,
  /// and flattens them with from_trees().
  void fit(const std::vector<FeatureRow>& X, const std::vector<double>& y,
           const ForestParams& params, std::uint64_t seed);

  /// Flattens fitted trees into one forest. Node order inside each tree is
  /// preserved (root first), so traversal visits the same nodes and yields
  /// bit-identical leaf values. Throws InvalidArgument on an empty list,
  /// unfitted trees, mismatched feature counts, or a node graph that is not
  /// a tree.
  static RandomForest from_trees(const std::vector<DecisionTree>& trees);

  bool fitted() const noexcept { return !roots_.empty(); }
  std::size_t n_trees() const noexcept { return roots_.size(); }
  std::size_t n_features() const noexcept { return n_features_; }
  /// Total nodes across all trees (the arena size).
  std::size_t n_nodes() const noexcept { return feature_.size(); }

  /// Mean of the per-tree predictions, accumulated in tree order — the one
  /// scalar entry point, bitwise-equal to jackknife_batch's `means`.
  double predict(const FeatureRow& row) const;

  /// Batched evaluation: walks `n_rows` rows across all trees tree-major,
  /// so one tree's arrays stay cache-hot while a whole batch of rows runs
  /// through them. `out` is row-major [n_rows x n_trees()]: out[r * n_trees
  /// + t] is tree t's prediction for rows[r].
  void predict_trees_batch(const FeatureRow* rows, std::size_t n_rows, double* out) const;

  /// Fused batched predict + jackknife over `n_rows` rows: one tree-major
  /// traversal pass fills a per-row prediction block, then `variances[r]`
  /// gets the jackknife variance of row r's per-tree predictions and
  /// `means[r]` their tree-order mean — trees are never re-traversed, and
  /// both reductions are bitwise-identical to jackknife_variance of the
  /// per-tree predictions and to predict() per row. Either output may be
  /// null to skip that reduction. `scratch` is caller-owned working memory
  /// (grown to n_rows * n_trees(), one buffer per thread in parallel
  /// sweeps); the call leaves its first n_rows * n_trees() entries holding
  /// the per-tree block in predict_trees_batch's layout.
  void jackknife_batch(const FeatureRow* rows, std::size_t n_rows, double* variances,
                       double* means, std::vector<double>& scratch) const;

  /// Serializes the fitted forest: one column-wise document per tree with
  /// tree-relative child indices (-1 on leaves) and the tree's depth.
  /// Requires fitted().
  util::Json to_json() const;
  /// Rebuilds a forest from to_json() output; each tree is parsed with
  /// DecisionTree::from_json and flattened with from_trees().
  static RandomForest from_json(const util::Json& doc);

 private:
  // One arena for all trees; tree t's nodes occupy [roots_[t], roots_[t+1])
  // (with an implicit end at n_nodes() for the last tree). Child indices are
  // arena-absolute, so traversal never consults per-tree offsets. Leaves
  // self-loop (left == right == own index): the batched kernel can then step
  // a whole block of rows through a tree for a fixed number of levels with
  // no per-lane branch — rows that reach their leaf early just spin in
  // place, which changes no bit of the result.
  std::vector<std::int32_t> feature_;  ///< split feature; negative marks a leaf
  std::vector<double> threshold_;      ///< go left if x[feature] <= threshold
  std::vector<std::int32_t> left_;
  std::vector<std::int32_t> right_;
  std::vector<double> value_;          ///< leaf prediction
  std::vector<std::int32_t> roots_;    ///< arena index of each tree's root
  std::vector<std::int32_t> depth_;    ///< max root-to-leaf edges per tree
  std::size_t n_features_ = 0;
};

/// Jackknife variance of a set of values exactly as the paper defines it
/// (§IV-A): the i-th jackknife sample is the mean with value i removed;
/// variance = sum((mean - sample_i)^2) / (n - 1). Returns 0 for n < 2.
double jackknife_variance(const std::vector<double>& values);

/// Span form for the batched sweeps; the vector overload forwards here, so
/// both compute identical floating-point operation sequences.
double jackknife_variance(const double* values, std::size_t n);

}  // namespace acclaim::ml
