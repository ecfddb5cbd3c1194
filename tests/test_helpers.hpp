// Shared fixtures for the tests: a small, fast precollected dataset over the
// tiny test machine, built once per process, the naive CART fitter that
// RandomForest::fit is checked against, the tree-walk reference the forest
// arena is checked against, and the per-row reference the candidate-grid
// sweep is checked against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

#include "benchdata/dataset.hpp"
#include "core/feature_space.hpp"
#include "core/model.hpp"
#include "ml/forest.hpp"
#include "simnet/machine.hpp"
#include "util/rng.hpp"

namespace acclaim::testing_support {

/// 8-node machine, 4 cores — everything below stays in the milliseconds.
inline simnet::MachineConfig small_machine() {
  simnet::MachineConfig m = simnet::tiny_test_machine();
  m.total_nodes = 16;
  m.nodes_per_rack = 4;
  m.cores_per_node = 8;
  return m;
}

/// P2 grid: nodes {2..16}, ppn {1..8}, msgs {64..64K}.
inline bench::FeatureGrid small_p2_grid() {
  return bench::FeatureGrid::p2(16, 8, 64, 64 * 1024);
}

/// The P2 grid plus one non-P2 message variant per anchor, so acquisition
/// policies can exercise the §IV-B rule against a DatasetEnvironment.
inline bench::FeatureGrid small_full_grid() {
  bench::FeatureGrid g = small_p2_grid();
  util::Rng rng(1234);
  const bench::FeatureGrid np2 = g.with_nonp2_msgs(rng);
  g.msgs.insert(g.msgs.end(), np2.msgs.begin(), np2.msgs.end());
  std::sort(g.msgs.begin(), g.msgs.end());
  g.msgs.erase(std::unique(g.msgs.begin(), g.msgs.end()), g.msgs.end());
  return g;
}

/// Process-lifetime dataset over all four collectives (collected once).
inline const bench::Dataset& small_dataset() {
  static const bench::Dataset ds =
      bench::precollect(small_machine(), small_full_grid(), coll::paper_collectives(), 7);
  return ds;
}

inline core::FeatureSpace small_space() {
  return core::FeatureSpace::from_grid(small_p2_grid());
}

/// A CollectionScheduler pull that hands out pool indices 0, 1, 2, ...
inline std::function<std::size_t()> pull_in_order() {
  return [next = std::size_t{0}]() mutable { return next++; };
}

/// The test oracle for RandomForest::fit's tree growth: a naive CART fitter
/// that sorts every node's rows for every feature. Its order is the one the
/// fast fitter pins: a node's sums run over its rows in ascending row index,
/// each row's copies back to back, and each feature is scanned in ascending
/// (value, row index) order, testing a split only where the next value is
/// larger. Row r is taken counts[r] times.
class OracleTree {
 public:
  OracleTree(const std::vector<ml::FeatureRow>& X, const std::vector<double>& y,
             const ml::TreeParams& params, util::Rng& rng)
      : X_(X), y_(y), params_(params), rng_(rng) {}

  ml::DecisionTree fit(const std::vector<std::uint32_t>& counts) {
    std::vector<std::size_t> idx;
    for (std::size_t r = 0; r < counts.size(); ++r) {
      idx.insert(idx.end(), counts[r], r);
    }
    nodes_.clear();
    depth_ = 0;
    build(idx, 0, idx.size(), 0);
    return ml::DecisionTree(nodes_, X_[0].size(), depth_);
  }

 private:
  std::int32_t build(std::vector<std::size_t>& idx, std::size_t begin, std::size_t end,
                     int depth) {
    depth_ = std::max(depth_, depth);
    const std::size_t n = end - begin;
    const auto first = idx.begin() + static_cast<std::ptrdiff_t>(begin);
    const auto last = idx.begin() + static_cast<std::ptrdiff_t>(end);
    std::sort(first, last);
    double sum = 0.0;
    double sum2 = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      sum += y_[idx[i]];
      sum2 += y_[idx[i]] * y_[idx[i]];
    }
    const double mean = sum / static_cast<double>(n);
    const double sse = sum2 - sum * mean;
    auto make_leaf = [&]() -> std::int32_t {
      ml::DecisionTree::Node leaf;
      leaf.value = mean;
      nodes_.push_back(leaf);
      return static_cast<std::int32_t>(nodes_.size() - 1);
    };
    if (depth >= params_.max_depth || n < static_cast<std::size_t>(params_.min_samples_split) ||
        sse <= 1e-12) {
      return make_leaf();
    }
    const std::size_t n_features = X_[0].size();
    std::vector<std::size_t> features(n_features);
    std::iota(features.begin(), features.end(), std::size_t{0});
    if (params_.max_features >= 0 && params_.max_features < static_cast<int>(n_features)) {
      features = rng_.sample_without_replacement(
          n_features, static_cast<std::size_t>(params_.max_features));
    }
    int best_feature = -1;
    double best_threshold = 0.0;
    double best_score = -1e-12;
    std::vector<std::size_t> order(first, last);
    for (const std::size_t f : features) {
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return X_[a][f] < X_[b][f] || (X_[a][f] == X_[b][f] && a < b);
      });
      double left_sum = 0.0;
      double left_sum2 = 0.0;
      for (std::size_t k = 0; k + 1 < n; ++k) {
        const double yi = y_[order[k]];
        left_sum += yi;
        left_sum2 += yi * yi;
        const double xv = X_[order[k]][f];
        const double xn = X_[order[k + 1]][f];
        if (xn <= xv) {
          continue;
        }
        const std::size_t nl = k + 1;
        const std::size_t nr = n - nl;
        if (nl < static_cast<std::size_t>(params_.min_samples_leaf) ||
            nr < static_cast<std::size_t>(params_.min_samples_leaf)) {
          continue;
        }
        const double right_sum = sum - left_sum;
        const double right_sum2 = sum2 - left_sum2;
        const double sse_l = left_sum2 - left_sum * left_sum / static_cast<double>(nl);
        const double sse_r = right_sum2 - right_sum * right_sum / static_cast<double>(nr);
        const double score = sse - sse_l - sse_r;
        if (score > best_score) {
          best_score = score;
          best_feature = static_cast<int>(f);
          best_threshold = 0.5 * (xv + xn);
        }
      }
    }
    if (best_feature < 0) {
      return make_leaf();
    }
    const auto bf = static_cast<std::size_t>(best_feature);
    const auto mid_it = std::partition(
        first, last, [&](std::size_t i) { return X_[i][bf] <= best_threshold; });
    const auto mid = static_cast<std::size_t>(mid_it - idx.begin());
    if (mid == begin || mid == end) {
      return make_leaf();
    }
    nodes_.emplace_back();
    const auto self = static_cast<std::int32_t>(nodes_.size() - 1);
    const std::int32_t left = build(idx, begin, mid, depth + 1);
    const std::int32_t right = build(idx, mid, end, depth + 1);
    ml::DecisionTree::Node& node = nodes_[static_cast<std::size_t>(self)];
    node.feature = best_feature;
    node.threshold = best_threshold;
    node.left = left;
    node.right = right;
    return self;
  }

  const std::vector<ml::FeatureRow>& X_;
  const std::vector<double>& y_;
  const ml::TreeParams& params_;
  util::Rng& rng_;
  std::vector<ml::DecisionTree::Node> nodes_;
  int depth_ = 0;
};

/// The trees RandomForest::fit(X, y, params, seed) fits, grown serially by
/// the oracle: tree i on the i-th draw of Rng(seed), with per-row counts from
/// X.size() calls to that tree's index(X.size()) under bootstrap and every
/// count 1 without.
inline std::vector<ml::DecisionTree> fit_trees(const std::vector<ml::FeatureRow>& X,
                                               const std::vector<double>& y,
                                               const ml::ForestParams& params,
                                               std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<ml::DecisionTree> trees;
  for (int t = 0; t < params.n_trees; ++t) {
    util::Rng tree_rng(rng.next_u64());
    std::vector<std::uint32_t> counts(X.size(), params.bootstrap ? 0u : 1u);
    if (params.bootstrap) {
      for (std::size_t k = 0; k < X.size(); ++k) {
        ++counts[tree_rng.index(X.size())];
      }
    }
    trees.push_back(OracleTree(X, y, params.tree, tree_rng).fit(counts));
  }
  return trees;
}

/// One tree grown by RandomForest::fit on every row (one tree, no
/// bootstrap), read back from the forest's document.
inline ml::DecisionTree fit_tree(const std::vector<ml::FeatureRow>& X,
                                 const std::vector<double>& y, const ml::TreeParams& params) {
  ml::ForestParams forest_params;
  forest_params.n_trees = 1;
  forest_params.bootstrap = false;
  forest_params.tree = params;
  ml::RandomForest forest;
  forest.fit(X, y, forest_params, 1);
  return ml::DecisionTree::from_json(forest.to_json().at("trees").as_array().front());
}

/// Per-tree predictions in tree order, walking each tree with
/// DecisionTree::predict: the scalar reference for every forest kernel.
inline std::vector<double> walk_trees(const std::vector<ml::DecisionTree>& trees,
                                      const ml::FeatureRow& row) {
  std::vector<double> out;
  for (const ml::DecisionTree& tree : trees) {
    out.push_back(tree.predict(row));
  }
  return out;
}

/// Per-tree predictions for one row, in tree order, from the forest's
/// batched kernel run on a batch of one.
inline std::vector<double> tree_predictions(const ml::RandomForest& forest,
                                            const ml::FeatureRow& row) {
  std::vector<double> out(forest.n_trees());
  forest.predict_trees_batch(&row, 1, out.data());
  return out;
}

/// The ids 0 .. n-1: a pool holding every candidate.
inline std::vector<std::size_t> all_ids(std::size_t n) {
  std::vector<std::size_t> ids(n);
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  return ids;
}

/// The jackknife variance of each point under `model`, each point's row run
/// alone through the row kernel (jackknife_batch on a batch of one) of the
/// forest in the model's own document: the per-row reference for
/// CollectiveModel::jackknife_variances over a candidate grid.
inline std::vector<double> row_variances(const core::CollectiveModel& model,
                                         const std::vector<bench::BenchmarkPoint>& points) {
  const ml::RandomForest forest = ml::RandomForest::from_json(model.to_json().at("forest"));
  std::vector<double> out(points.size());
  std::vector<double> scratch;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ml::FeatureRow row = core::encode_point(points[i]);
    forest.jackknife_batch(&row, 1, &out[i], nullptr, scratch);
  }
  return out;
}

}  // namespace acclaim::testing_support
