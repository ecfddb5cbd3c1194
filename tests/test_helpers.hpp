// Shared fixtures for the tests: a small, fast precollected dataset over the
// tiny test machine, built once per process, and the tree-walk reference the
// forest arena is checked against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <vector>

#include "benchdata/dataset.hpp"
#include "core/feature_space.hpp"
#include "ml/forest.hpp"
#include "simnet/machine.hpp"

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

/// The trees RandomForest::fit(X, y, params, seed) fits — tree i on the i-th
/// draw of Rng(seed), bootstrap-resampled from that tree's own stream — fit
/// serially and kept as node-struct DecisionTrees.
inline std::vector<ml::DecisionTree> fit_trees(const std::vector<ml::FeatureRow>& X,
                                               const std::vector<double>& y,
                                               const ml::ForestParams& params,
                                               std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<ml::DecisionTree> trees(static_cast<std::size_t>(params.n_trees));
  for (ml::DecisionTree& tree : trees) {
    util::Rng tree_rng(rng.next_u64());
    if (params.bootstrap) {
      std::vector<std::size_t> sample(X.size());
      for (std::size_t& i : sample) {
        i = tree_rng.index(X.size());
      }
      tree.fit(X, y, sample, params.tree, tree_rng);
    } else {
      tree.fit(X, y, params.tree, tree_rng);
    }
  }
  return trees;
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

}  // namespace acclaim::testing_support
