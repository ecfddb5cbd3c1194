// Differential suite pinning the forest's SoA arena to the trees it was
// flattened from: randomized forests x randomized feature rows (and product
// grids of rows) must produce predictions, per-tree outputs, and fused and
// grid jackknife results bitwise-equal to walking the fitted DecisionTrees
// one by one, including degenerate trees
// (single leaf, constant features, duplicate thresholds) and adversarial row
// values (NaN, infinities, extremes). This suite is the contract
// forest.hpp's header states.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "ml/forest.hpp"
#include "telemetry/metrics.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace acclaim;
using testing_support::fit_trees;
using testing_support::tree_predictions;
using testing_support::walk_trees;

/// Seeded random training set: `n_features` columns, mixed continuous and
/// small-integer (duplicate-threshold-inducing) features.
void random_data(util::Rng& rng, std::size_t n_features, std::size_t n_samples,
                 std::vector<ml::FeatureRow>& X, std::vector<double>& y) {
  X.clear();
  y.clear();
  for (std::size_t i = 0; i < n_samples; ++i) {
    ml::FeatureRow row(n_features);
    double label = 0.0;
    for (std::size_t f = 0; f < n_features; ++f) {
      // Even columns continuous, odd columns drawn from {0,1,2,3} so many
      // split candidates tie at identical thresholds.
      row[f] = (f % 2 == 0) ? rng.uniform(-3.0, 3.0)
                            : static_cast<double>(rng.uniform_int(0, 3));
      label += row[f] * (0.3 + 0.2 * static_cast<double>(f));
    }
    X.push_back(std::move(row));
    y.push_back(label + rng.normal(0.0, 0.1));
  }
}

/// Random probe rows over (and beyond) the training range.
std::vector<ml::FeatureRow> random_rows(util::Rng& rng, std::size_t n_features,
                                        std::size_t n_rows) {
  std::vector<ml::FeatureRow> rows;
  for (std::size_t i = 0; i < n_rows; ++i) {
    ml::FeatureRow row(n_features);
    for (double& v : row) {
      v = rng.uniform(-10.0, 10.0);
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

double reference_mean(const std::vector<double>& preds) {
  double sum = 0.0;
  for (double v : preds) {
    sum += v;
  }
  return sum / static_cast<double>(preds.size());
}

ml::ForestParams forest_params(int n_trees) {
  ml::ForestParams params;
  params.n_trees = n_trees;
  return params;
}

/// A tie-heavy training set shaped like the learner's: grid-valued axes
/// (small integers, as log2 nodes/ppn/msg are) and a one-hot block, with
/// repeated rows, repeated targets and sometimes a constant target. Returns
/// the number of axes: the one-hot block starts there.
std::size_t tie_heavy_data(util::Rng& rng, std::vector<ml::FeatureRow>& X,
                           std::vector<double>& y) {
  X.clear();
  y.clear();
  const auto n_axes = static_cast<std::size_t>(rng.uniform_int(1, 3));
  const auto n_onehot = static_cast<std::size_t>(rng.uniform_int(0, 5));
  const auto n_rows = static_cast<std::size_t>(rng.uniform_int(1, 70));
  const int grid = static_cast<int>(rng.uniform_int(1, 6));
  const bool constant = rng.uniform(0.0, 1.0) < 0.15;
  for (std::size_t i = 0; i < n_rows; ++i) {
    if (i > 0 && rng.uniform(0.0, 1.0) < 0.25) {
      // A repeated row, with its own target or the same one.
      const std::size_t j = rng.index(i);
      X.push_back(X[j]);
      y.push_back(rng.uniform(0.0, 1.0) < 0.5 ? y[j] : static_cast<double>(rng.uniform_int(0, 4)));
      continue;
    }
    ml::FeatureRow row;
    for (std::size_t a = 0; a < n_axes; ++a) {
      row.push_back(static_cast<double>(rng.uniform_int(0, grid)));
    }
    const std::size_t hot = n_onehot > 0 ? rng.index(n_onehot) : 0;
    for (std::size_t k = 0; k < n_onehot; ++k) {
      row.push_back(k == hot ? 1.0 : 0.0);
    }
    X.push_back(std::move(row));
    // Small-integer targets tie; the rest are continuous.
    y.push_back(constant                         ? 2.5
                : rng.uniform(0.0, 1.0) < 0.5 ? static_cast<double>(rng.uniform_int(0, 4))
                                              : rng.uniform(-2.0, 2.0));
  }
  return n_axes;
}

/// A random product grid over `n_features` features. Features from
/// `onehot_begin` on form one one-hot group (member j hot on feature
/// onehot_begin + j); the others fall into one to three groups of one to
/// five members, one of which holds `wide` members when `wide` is not 0. A
/// group may have no feature. Member values come from the training range,
/// from far beyond it (infinities and NaN included), or repeat an earlier
/// member's value.
ml::ProductGrid random_grid(util::Rng& rng, std::size_t n_features, std::size_t onehot_begin,
                            std::size_t wide) {
  ml::ProductGrid grid;
  const auto n_axis_groups = static_cast<std::size_t>(rng.uniform_int(1, 3));
  for (std::size_t g = 0; g < n_axis_groups; ++g) {
    grid.members.push_back(static_cast<std::size_t>(rng.uniform_int(1, 5)));
  }
  if (wide != 0) {
    grid.members[rng.index(n_axis_groups)] = wide;
  }
  const double extremes[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  grid.features.resize(n_features);
  for (std::size_t f = 0; f < onehot_begin && f < n_features; ++f) {
    ml::ProductGrid::Feature& feature = grid.features[f];
    feature.group = rng.index(n_axis_groups);
    for (std::size_t m = 0; m < grid.members[feature.group]; ++m) {
      const double u = rng.uniform(0.0, 1.0);
      feature.values.push_back(
          m > 0 && u < 0.25 ? feature.values[rng.index(m)]
          : u < 0.55        ? static_cast<double>(rng.uniform_int(0, 3))
          : u < 0.9         ? rng.uniform(-10.0, 10.0)
                            : extremes[rng.index(3)]);
    }
  }
  if (onehot_begin < n_features) {
    grid.members.push_back(n_features - onehot_begin);
    for (std::size_t f = onehot_begin; f < n_features; ++f) {
      ml::ProductGrid::Feature& feature = grid.features[f];
      feature.group = n_axis_groups;
      for (std::size_t m = 0; m < n_features - onehot_begin; ++m) {
        feature.values.push_back(m == f - onehot_begin ? 1.0 : 0.0);
      }
    }
  }
  return grid;
}

/// Success when every cell of the grid sweep has the bits of
/// jackknife_variance over walking that cell's explicit row through the
/// trees.
testing::AssertionResult grid_sweep_matches_walk(const ml::RandomForest& forest,
                                                 const std::vector<ml::DecisionTree>& trees,
                                                 const ml::ProductGrid& grid) {
  const std::vector<double> var = forest.jackknife_grid(grid);
  if (var.size() != grid.n_rows()) {
    return testing::AssertionFailure() << var.size() << " variances for " << grid.n_rows()
                                       << " rows";
  }
  for (std::size_t r = 0; r < var.size(); ++r) {
    const double ref = ml::jackknife_variance(walk_trees(trees, grid.row(r)));
    if (std::bit_cast<std::uint64_t>(var[r]) != std::bit_cast<std::uint64_t>(ref)) {
      return testing::AssertionFailure() << "row " << r << ": " << var[r] << " != " << ref;
    }
  }
  return testing::AssertionSuccess();
}

TEST(ForestArenaBuild, ArenaCoversEveryNodeOfEveryTree) {
  util::Rng rng(11);
  std::vector<ml::FeatureRow> X;
  std::vector<double> y;
  random_data(rng, 4, 120, X, y);
  const std::vector<ml::DecisionTree> trees = fit_trees(X, y, forest_params(9), 5);
  const ml::RandomForest forest = ml::RandomForest::from_trees(trees);

  ASSERT_TRUE(forest.fitted());
  EXPECT_EQ(forest.n_trees(), trees.size());
  EXPECT_EQ(forest.n_features(), 4u);
  std::size_t total = 0;
  for (const ml::DecisionTree& tree : trees) {
    total += tree.node_count();
  }
  EXPECT_EQ(forest.n_nodes(), total);
}

TEST(ForestArenaBuild, FitEqualsFromTreesOfTreesFitWithTheSameSeeds) {
  // fit() is exactly "grow tree i with the per-node-sort oracle on the i-th
  // seed, then from_trees": the arena it keeps serializes to the same bytes
  // and answers the same bits. The presorted fitter must match the oracle's
  // pinned (value, row) order on a continuous/integer mix and on 300
  // tie-heavy sets, for every TreeParams knob, with and without bootstrap.
  util::Rng rng(61);
  std::vector<ml::FeatureRow> X;
  std::vector<double> y;
  random_data(rng, 3, 80, X, y);
  for (const bool bootstrap : {true, false}) {
    ml::ForestParams params = forest_params(13);
    params.bootstrap = bootstrap;
    params.tree.max_features = 2;
    ml::RandomForest fitted;
    fitted.fit(X, y, params, 29);
    const ml::RandomForest flattened = ml::RandomForest::from_trees(fit_trees(X, y, params, 29));
    ASSERT_EQ(fitted.to_json().dump(), flattened.to_json().dump()) << "bootstrap=" << bootstrap;
    for (const ml::FeatureRow& row : random_rows(rng, 3, 10)) {
      ASSERT_EQ(tree_predictions(fitted, row), tree_predictions(flattened, row));
    }
  }

  util::Rng tie_rng(8128);
  for (int trial = 0; trial < 300; ++trial) {
    tie_heavy_data(tie_rng, X, y);
    const auto n_features = static_cast<int>(X[0].size());
    ml::ForestParams params;
    params.n_trees = static_cast<int>(tie_rng.uniform_int(1, 6));
    params.bootstrap = trial % 2 == 0;
    params.tree.max_depth = tie_rng.uniform(0.0, 1.0) < 0.3
                                ? static_cast<int>(tie_rng.uniform_int(0, 4))
                                : 32;
    params.tree.min_samples_leaf = static_cast<int>(tie_rng.uniform_int(1, 4));
    params.tree.min_samples_split = static_cast<int>(tie_rng.uniform_int(2, 6));
    params.tree.max_features = tie_rng.uniform(0.0, 1.0) < 0.4
                                   ? static_cast<int>(tie_rng.uniform_int(1, n_features))
                                   : -1;
    const auto seed = static_cast<std::uint64_t>(1000 + trial);
    ml::RandomForest fitted;
    fitted.fit(X, y, params, seed);
    const ml::RandomForest oracle = ml::RandomForest::from_trees(fit_trees(X, y, params, seed));
    ASSERT_EQ(fitted.to_json().dump(), oracle.to_json().dump())
        << "trial=" << trial << " rows=" << X.size() << " features=" << n_features
        << " bootstrap=" << params.bootstrap << " max_depth=" << params.tree.max_depth
        << " min_samples_leaf=" << params.tree.min_samples_leaf
        << " min_samples_split=" << params.tree.min_samples_split
        << " max_features=" << params.tree.max_features;
  }
}

TEST(ForestArenaBuild, RejectsEmptyUnfittedAndMixedWidthTrees) {
  EXPECT_THROW(ml::RandomForest::from_trees({}), InvalidArgument);
  EXPECT_THROW(ml::RandomForest::from_trees({ml::DecisionTree{}}), InvalidArgument);
  util::Rng rng(4);
  std::vector<ml::FeatureRow> X2, X3;
  std::vector<double> y2, y3;
  random_data(rng, 2, 20, X2, y2);
  random_data(rng, 3, 20, X3, y3);
  std::vector<ml::DecisionTree> trees = fit_trees(X2, y2, forest_params(1), 1);
  trees.push_back(fit_trees(X3, y3, forest_params(1), 1).front());
  EXPECT_THROW(ml::RandomForest::from_trees(trees), InvalidArgument);
}

TEST(ForestArenaDifferential, RandomForestsBitwiseEqualToTreeWalks) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t n_features = 2 + static_cast<std::size_t>(rng.uniform_int(0, 4));
    std::vector<ml::FeatureRow> X;
    std::vector<double> y;
    random_data(rng, n_features, 40 + static_cast<std::size_t>(rng.uniform_int(0, 160)), X, y);
    ml::ForestParams params;
    params.n_trees = 1 + static_cast<int>(rng.uniform_int(0, 40));
    params.bootstrap = trial % 2 == 0;
    params.tree.max_depth = 2 + static_cast<int>(rng.uniform_int(0, 20));
    params.tree.min_samples_leaf = 1 + static_cast<int>(rng.uniform_int(0, 4));
    const std::vector<ml::DecisionTree> trees =
        fit_trees(X, y, params, static_cast<std::uint64_t>(100 + trial));
    const ml::RandomForest forest = ml::RandomForest::from_trees(trees);

    for (const ml::FeatureRow& row : random_rows(rng, n_features, 25)) {
      const std::vector<double> ref = walk_trees(trees, row);
      ASSERT_EQ(tree_predictions(forest, row), ref) << "trial=" << trial;
      ASSERT_EQ(forest.predict(row), reference_mean(ref)) << "trial=" << trial;
    }
  }
}

TEST(ForestArenaDifferential, BatchedMatchesScalarForRandomBatchSizes) {
  util::Rng rng(31);
  std::vector<ml::FeatureRow> X;
  std::vector<double> y;
  random_data(rng, 5, 150, X, y);
  const std::vector<ml::DecisionTree> trees = fit_trees(X, y, forest_params(17), 9);
  const ml::RandomForest forest = ml::RandomForest::from_trees(trees);
  const std::size_t nt = forest.n_trees();

  // Sizes straddling the kernel's lane width: tail-only, one full block,
  // full blocks plus tail, and larger random batches.
  for (const std::size_t n_rows : {std::size_t{1}, std::size_t{3}, std::size_t{8},
                                   std::size_t{9}, std::size_t{16}, std::size_t{21},
                                   static_cast<std::size_t>(rng.uniform_int(30, 200))}) {
    const std::vector<ml::FeatureRow> rows = random_rows(rng, 5, n_rows);
    std::vector<double> batched(n_rows * nt);
    forest.predict_trees_batch(rows.data(), n_rows, batched.data());
    for (std::size_t r = 0; r < n_rows; ++r) {
      const std::vector<double> scalar = tree_predictions(forest, rows[r]);
      for (std::size_t t = 0; t < nt; ++t) {
        ASSERT_EQ(batched[r * nt + t], scalar[t])
            << "n_rows=" << n_rows << " row=" << r << " tree=" << t;
      }
      ASSERT_EQ(scalar, walk_trees(trees, rows[r]));
    }
  }
}

TEST(ForestArenaDifferential, FusedJackknifeMatchesScalarReductions) {
  util::Rng rng(47);
  std::vector<ml::FeatureRow> X;
  std::vector<double> y;
  random_data(rng, 4, 180, X, y);
  const std::vector<ml::DecisionTree> trees = fit_trees(X, y, forest_params(33), 21);
  const ml::RandomForest forest = ml::RandomForest::from_trees(trees);

  const std::vector<ml::FeatureRow> rows = random_rows(rng, 4, 57);
  std::vector<double> var(rows.size()), mean(rows.size()), scratch;
  forest.jackknife_batch(rows.data(), rows.size(), var.data(), mean.data(), scratch);

  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::vector<double> preds = walk_trees(trees, rows[r]);
    ASSERT_EQ(var[r], ml::jackknife_variance(preds)) << "row=" << r;
    ASSERT_EQ(mean[r], reference_mean(preds)) << "row=" << r;
  }
}

TEST(ForestArenaDifferential, GridSweepBitwiseEqualToWalkingEachRow) {
  // The grid kernel against the oracle's trees walked row by row, on
  // continuous/integer forests with and without bootstrap and on
  // learner-shaped tie-heavy forests with a one-hot block; grids with
  // single-member groups, a group at the 64-member limit, duplicate and
  // out-of-range member values, and a one-hot group.
  util::Rng rng(4099);
  for (int trial = 0; trial < 24; ++trial) {
    std::vector<ml::FeatureRow> X;
    std::vector<double> y;
    std::size_t onehot_begin = 0;
    if (trial % 3 == 2) {
      onehot_begin = tie_heavy_data(rng, X, y);
    } else {
      random_data(rng, 2 + static_cast<std::size_t>(rng.uniform_int(0, 3)),
                  30 + static_cast<std::size_t>(rng.uniform_int(0, 120)), X, y);
      onehot_begin = X[0].size();
    }
    ml::ForestParams params;
    params.n_trees = 2 + static_cast<int>(rng.uniform_int(0, 30));
    params.bootstrap = trial % 2 == 0;
    params.tree.max_depth = 2 + static_cast<int>(rng.uniform_int(0, 20));
    params.tree.min_samples_leaf = 1 + static_cast<int>(rng.uniform_int(0, 3));
    const std::vector<ml::DecisionTree> trees =
        fit_trees(X, y, params, static_cast<std::uint64_t>(300 + trial));
    const ml::RandomForest forest = ml::RandomForest::from_trees(trees);
    const std::size_t wide = trial % 4 == 1 ? ml::ProductGrid::kMaxMembers : 0;
    const ml::ProductGrid grid = random_grid(rng, X[0].size(), onehot_begin, wide);
    ASSERT_TRUE(grid_sweep_matches_walk(forest, trees, grid)) << "trial=" << trial;
  }
}

TEST(ForestArenaDifferential, NullOutputsSkipThatReduction) {
  util::Rng rng(3);
  std::vector<ml::FeatureRow> X;
  std::vector<double> y;
  random_data(rng, 3, 60, X, y);
  ml::RandomForest forest;
  forest.fit(X, y, forest_params(7), 4);

  const std::vector<ml::FeatureRow> rows = random_rows(rng, 3, 11);
  std::vector<double> var(rows.size()), mean(rows.size()), scratch;
  forest.jackknife_batch(rows.data(), rows.size(), var.data(), mean.data(), scratch);

  std::vector<double> var_only(rows.size()), mean_only(rows.size()), s2;
  forest.jackknife_batch(rows.data(), rows.size(), var_only.data(), nullptr, s2);
  forest.jackknife_batch(rows.data(), rows.size(), nullptr, mean_only.data(), s2);
  EXPECT_EQ(var_only, var);
  EXPECT_EQ(mean_only, mean);
  forest.jackknife_batch(rows.data(), 0, nullptr, nullptr, s2);  // no-op
}

TEST(ForestArenaDegenerate, SingleLeafTreesPredictTheConstant) {
  // Constant target: every tree collapses to a single leaf (depth 0), the
  // batched kernel's zero-iteration path.
  std::vector<ml::FeatureRow> X;
  std::vector<double> y;
  util::Rng rng(8);
  for (int i = 0; i < 30; ++i) {
    X.push_back({rng.uniform(), rng.uniform()});
    y.push_back(2.5);
  }
  const std::vector<ml::DecisionTree> trees = fit_trees(X, y, forest_params(10), 2);
  const ml::RandomForest forest = ml::RandomForest::from_trees(trees);

  const std::vector<ml::FeatureRow> rows = random_rows(rng, 2, 19);
  std::vector<double> batched(rows.size() * forest.n_trees());
  forest.predict_trees_batch(rows.data(), rows.size(), batched.data());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::vector<double> ref = walk_trees(trees, rows[r]);
    for (std::size_t t = 0; t < forest.n_trees(); ++t) {
      ASSERT_EQ(batched[r * forest.n_trees() + t], ref[t]);
    }
    ASSERT_EQ(forest.predict(rows[r]), reference_mean(ref));
  }
}

TEST(ForestArenaDegenerate, GridSweepOfOneTreeAndSingleLeafForestsIsZero) {
  // One tree: every jackknife variance is 0 (n < 2). A constant target:
  // every tree is one leaf, whose box is the whole grid. Each grid cell
  // counts as one batched row.
  util::Rng rng(12);
  std::vector<ml::FeatureRow> X;
  std::vector<double> y;
  random_data(rng, 3, 50, X, y);
  std::vector<ml::FeatureRow> X_const = X;
  const std::vector<double> y_const(X.size(), 2.5);
  const ml::ProductGrid grid = random_grid(rng, 3, 3, 0);
  const telemetry::Counter& batched = telemetry::metrics().counter("ml.forest.batched_rows");
  for (const auto& [trees, label] :
       {std::pair{fit_trees(X, y, forest_params(1), 6), "one tree"},
        std::pair{fit_trees(X_const, y_const, forest_params(9), 6), "single leaves"}}) {
    const ml::RandomForest forest = ml::RandomForest::from_trees(trees);
    const std::uint64_t before = batched.value();
    const std::vector<double> var = forest.jackknife_grid(grid);
    EXPECT_EQ(batched.value() - before, grid.n_rows()) << label;
    EXPECT_EQ(var, std::vector<double>(grid.n_rows(), 0.0)) << label;
    EXPECT_TRUE(grid_sweep_matches_walk(forest, trees, grid)) << label;
  }
}

TEST(ForestArenaDegenerate, GridSweepRejectsGridsItCannotSplit) {
  util::Rng rng(5);
  std::vector<ml::FeatureRow> X;
  std::vector<double> y;
  random_data(rng, 2, 30, X, y);
  ml::RandomForest forest;
  const ml::ProductGrid grid = random_grid(rng, 2, 2, 0);
  // No rows: nothing to sweep, even before fit.
  EXPECT_TRUE(forest.jackknife_grid(ml::ProductGrid{}).empty());
  EXPECT_THROW(forest.jackknife_grid(grid), InvalidArgument);  // not fitted
  forest.fit(X, y, forest_params(3), 2);
  EXPECT_EQ(forest.jackknife_grid(grid).size(), grid.n_rows());

  ml::ProductGrid narrow = grid;
  narrow.features.pop_back();
  EXPECT_THROW(forest.jackknife_grid(narrow), InvalidArgument);
  ml::ProductGrid too_wide = grid;
  too_wide.members[0] = ml::ProductGrid::kMaxMembers + 1;
  for (ml::ProductGrid::Feature& f : too_wide.features) {
    if (f.group == 0) {
      f.values.assign(too_wide.members[0], 0.0);
    }
  }
  EXPECT_THROW(forest.jackknife_grid(too_wide), InvalidArgument);
  ml::ProductGrid no_group = grid;
  no_group.features[0].group = grid.members.size();
  EXPECT_THROW(forest.jackknife_grid(no_group), InvalidArgument);
  ml::ProductGrid short_values = grid;
  short_values.features[1].values.push_back(1.0);
  EXPECT_THROW(forest.jackknife_grid(short_values), InvalidArgument);
}

TEST(ForestArenaDegenerate, ConstantFeaturesAndDuplicateThresholds) {
  // One informative small-integer column among constant columns: splits
  // stack on duplicated thresholds, constant columns are never split on.
  std::vector<ml::FeatureRow> X;
  std::vector<double> y;
  util::Rng rng(6);
  for (int i = 0; i < 80; ++i) {
    const double v = static_cast<double>(rng.uniform_int(0, 2));
    X.push_back({1.0, v, -7.0});
    y.push_back(v * 3.0 + rng.normal(0.0, 0.01));
  }
  const std::vector<ml::DecisionTree> trees = fit_trees(X, y, forest_params(12), 13);
  const ml::RandomForest forest = ml::RandomForest::from_trees(trees);

  // Probe exactly on the duplicated threshold values (the <= boundary) and
  // on the constant columns' value.
  std::vector<ml::FeatureRow> rows;
  for (double v : {0.0, 0.5, 1.0, 1.5, 2.0, -1.0, 3.0}) {
    rows.push_back({1.0, v, -7.0});
  }
  for (const ml::FeatureRow& row : rows) {
    ASSERT_EQ(tree_predictions(forest, row), walk_trees(trees, row));
  }
  std::vector<double> batched(rows.size() * forest.n_trees());
  forest.predict_trees_batch(rows.data(), rows.size(), batched.data());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::vector<double> ref = walk_trees(trees, rows[r]);
    for (std::size_t t = 0; t < forest.n_trees(); ++t) {
      ASSERT_EQ(batched[r * forest.n_trees() + t], ref[t]);
    }
  }
}

TEST(ForestArenaDegenerate, NanAndExtremeValuesRouteIdentically) {
  util::Rng rng(77);
  std::vector<ml::FeatureRow> X;
  std::vector<double> y;
  random_data(rng, 3, 100, X, y);
  const std::vector<ml::DecisionTree> trees = fit_trees(X, y, forest_params(15), 3);
  const ml::RandomForest forest = ml::RandomForest::from_trees(trees);

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double huge = std::numeric_limits<double>::max();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<ml::FeatureRow> rows = {
      {nan, 0.0, 0.0},   {0.0, nan, 1.0},    {nan, nan, nan},
      {inf, -inf, 0.0},  {-inf, inf, nan},   {huge, -huge, tiny},
      {tiny, -tiny, inf}, {0.0, -0.0, nan},
  };
  for (const ml::FeatureRow& row : rows) {
    // NaN fails `x <= threshold`, so the arena must route right at every
    // NaN-featured split — verified against the tree walks directly.
    const std::vector<double> ref = walk_trees(trees, row);
    ASSERT_EQ(tree_predictions(forest, row), ref);
    ASSERT_EQ(forest.predict(row), reference_mean(ref));
  }
  std::vector<double> batched(rows.size() * forest.n_trees());
  forest.predict_trees_batch(rows.data(), rows.size(), batched.data());
  std::vector<double> var(rows.size()), mean(rows.size()), scratch;
  forest.jackknife_batch(rows.data(), rows.size(), var.data(), mean.data(), scratch);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const std::vector<double> ref = walk_trees(trees, rows[r]);
    for (std::size_t t = 0; t < forest.n_trees(); ++t) {
      ASSERT_EQ(batched[r * forest.n_trees() + t], ref[t]);
    }
    ASSERT_EQ(var[r], ml::jackknife_variance(ref));
    ASSERT_EQ(mean[r], reference_mean(ref));
  }
}

TEST(ForestArenaSerialization, FromJsonRebuildsTheArena) {
  util::Rng rng(91);
  std::vector<ml::FeatureRow> X;
  std::vector<double> y;
  random_data(rng, 4, 90, X, y);
  ml::RandomForest forest;
  forest.fit(X, y, forest_params(11), 17);

  const ml::RandomForest restored = ml::RandomForest::from_json(forest.to_json());
  ASSERT_TRUE(restored.fitted());
  EXPECT_EQ(restored.n_nodes(), forest.n_nodes());
  EXPECT_EQ(restored.to_json().dump(), forest.to_json().dump());
  for (const ml::FeatureRow& row : random_rows(rng, 4, 20)) {
    ASSERT_EQ(tree_predictions(restored, row), tree_predictions(forest, row));
  }
}

TEST(ForestArenaSerialization, CyclicNodeGraphIsRejectedAtLoadTime) {
  // DecisionTree::from_json only bounds-checks child indices; a cycle would
  // hang a tree walk. from_trees' DFS visit bound rejects it when
  // RandomForest::from_json flattens the trees.
  util::Json tree = util::Json::object();
  tree["n_features"] = 1;
  tree["depth"] = 1;
  tree["feature"] = util::Json::array();
  tree["threshold"] = util::Json::array();
  tree["left"] = util::Json::array();
  tree["right"] = util::Json::array();
  tree["value"] = util::Json::array();
  // Node 0 splits and points both children back at itself.
  tree["feature"].push_back(0);
  tree["threshold"].push_back(0.5);
  tree["left"].push_back(0);
  tree["right"].push_back(0);
  tree["value"].push_back(0.0);

  util::Json doc = util::Json::object();
  doc["model"] = "acclaim-random-forest-v1";
  util::Json trees = util::Json::array();
  trees.push_back(std::move(tree));
  doc["trees"] = std::move(trees);
  EXPECT_THROW(ml::RandomForest::from_json(doc), InvalidArgument);
}

}  // namespace
