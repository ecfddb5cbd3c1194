// Random forest regressor (bootstrap-aggregated CART trees), held as one
// structure-of-arrays arena.
//
// Fit. fit() lays the training set out once per forest: X column-major and,
// per feature, the rows in ascending (value, row index) order. Each tree
// takes its bootstrap as per-row counts and keeps F+1 lists of its counted
// rows (one per feature in that order, one in row order); a node sums its
// targets over the row-order list, scans each considered feature's list for
// the split with the largest variance reduction (the criterion
// scikit-learn's DecisionTreeRegressor uses, the paper's model family, §V),
// and a split partitions all F+1 lists stably by a per-row left flag. That
// is O(F·n) per node with no sort. The order is pinned, so a tree is a
// function of (X, y, counts, params, rng) alone: a node's sums run over its
// rows in ascending row index, each row's copies back to back, and a scan
// tests a split only where the next row's value is larger. Ties keep the
// first feature in scan order and the first position in the scan. The
// naive fitter that sorts every node's rows (tests/test_helpers.hpp) is the
// oracle; tests/test_forest_arena.cpp checks the two serialize to the same
// bytes.
//
// Evaluation. A node-struct walk loads a 32-byte Node per hop to use at
// most half of it. Prediction and per-tree jackknife variance dominate every
// acquisition round (PAPER.md §IV; the fig10/fig12 hot paths), so a forest
// keeps no trees: fit() and from_json() flatten them into one shared arena
// of parallel arrays — split feature, threshold, left child, right child,
// leaf value — and drop them. predict() walks the arena for one row's mean
// (the Hunold baseline and predict_log_us use it). The batched kernels give
// per-tree blocks: predict_trees_batch() alone, and jackknife_batch(), which
// every selection runs on a scenario's few candidate rows. A candidate sweep
// scores a whole product grid (the P2 candidates: nodes x ppn x msg x
// algorithm), whose cells share almost every split, so jackknife_grid()
// walks no row: each tree splits the grid's box at every node by the walk's
// comparison and writes each leaf's value into every cell of its box.
//
// Equivalence contract: flattening copies node fields bit-for-bit and
// preserves node order, traversal and the grid's box splits use
// DecisionTree::predict's `x[f] <= threshold` comparison (NaN routes right),
// and every mean and variance accumulates in tree order. Results are
// therefore bitwise-equal to walking the source trees (or the grid's
// explicit rows) with DecisionTree::predict — enforced by
// tests/test_forest_arena.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "ml/tree.hpp"

namespace acclaim::ml {

/// A full product grid of feature rows, such as one collective's P2
/// candidates. The grid is a list of groups; group g has members[g]
/// members. Every feature belongs to one group and takes one value per
/// member of it. Rows run row-major over the groups, the last group
/// fastest: row r takes member (r / stride_g) % members[g] of group g,
/// where stride_g is the product of the later groups' sizes.
struct ProductGrid {
  struct Feature {
    std::size_t group = 0;
    std::vector<double> values;  ///< one per member of the group
    bool operator==(const Feature&) const = default;
  };
  /// The most members a group may have (one bit each in a 64-bit mask).
  static constexpr std::size_t kMaxMembers = 64;

  std::vector<std::size_t> members;  ///< per group
  std::vector<Feature> features;     ///< per feature, in row order

  /// The product of the group sizes; 0 for a grid with no groups.
  std::size_t n_rows() const noexcept;
  /// Row r spelled out, the way a row-walking kernel would take it.
  FeatureRow row(std::size_t r) const;

  bool operator==(const ProductGrid&) const = default;
};

struct ForestParams {
  int n_trees = 64;
  bool bootstrap = true;
  TreeParams tree;
};

/// scikit-style RandomForestRegressor: each tree fits a bootstrap resample;
/// the forest predicts the mean of the trees. predict_trees_batch(),
/// jackknife_batch() and jackknife_grid() expose the per-tree predictions
/// the jackknife variance (§IV-A) needs.
class RandomForest {
 public:
  /// Fits params.n_trees trees, tree i on the i-th seed drawn from `seed`,
  /// and flattens them with from_trees(). With bootstrap, tree i's row
  /// counts come from X.size() calls to index(X.size()) on its stream;
  /// without, every count is 1. A max_features subset is drawn per split
  /// node, in pre-order, from the same stream. The one way to grow trees.
  /// Throws InvalidArgument on empty, misaligned or ragged input, or on a
  /// non-finite feature or target.
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
  /// (grown to n_rows * n_trees(), one buffer per thread when scenarios are
  /// scored in parallel); the call leaves its first n_rows * n_trees()
  /// entries holding the per-tree block in predict_trees_batch's layout.
  void jackknife_batch(const FeatureRow* rows, std::size_t n_rows, double* variances,
                       double* means, std::vector<double>& scratch) const;

  /// The jackknife variance of every row of `grid`, in row order, without
  /// walking a row. Per tree, one depth-first pass carries the box of grid
  /// cells that reach each node as one live-member mask per group: a split
  /// on feature f of group g sends the live members whose value passes the
  /// walk's `value <= threshold` left and the rest right, and a leaf writes
  /// its value into every cell of its box, so each cell gets the leaf its
  /// row's walk reaches. A tree costs O(nodes x members + cells). The trees
  /// fill a tree-major [tree x cell] block on the global pool, one row each;
  /// each cell is then reduced in tree order with jackknife_variance's exact
  /// operations, over fixed blocks of cells. Every value is therefore
  /// bitwise-equal to jackknife_variance of walking that row, for any thread
  /// count. A grid with no rows gives an empty vector, even before fit.
  /// Throws InvalidArgument before fit, when the grid's feature count is not
  /// n_features(), or when a feature names no group, a group has more than
  /// ProductGrid::kMaxMembers members, or a feature's value count is not its
  /// group's size.
  std::vector<double> jackknife_grid(const ProductGrid& grid) const;

  /// Serializes the fitted forest: one column-wise document per tree with
  /// tree-relative child indices (-1 on leaves) and the tree's depth.
  /// Requires fitted().
  util::Json to_json() const;
  /// Rebuilds a forest from to_json() output; each tree is parsed with
  /// DecisionTree::from_json and flattened with from_trees().
  static RandomForest from_json(const util::Json& doc);

 private:
  class GridIndex;
  /// Writes tree t's value for every cell of an indexed grid into
  /// out[cell]: jackknife_grid's per-tree pass.
  void fill_tree(std::size_t t, const GridIndex& index, double* out) const;

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
