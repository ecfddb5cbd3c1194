// Tests for the ML stack: CART trees, random forests, jackknife variance,
// metrics. Includes property-style parameterized checks on synthetic
// regression targets.
#include <gtest/gtest.h>

#include <cmath>

#include "ml/forest.hpp"
#include "ml/metrics.hpp"
#include "ml/tree.hpp"
#include "util/error.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace {

using namespace acclaim;
using ml::DecisionTree;
using ml::FeatureRow;
using ml::ForestParams;
using ml::RandomForest;
using ml::TreeParams;

struct Synth {
  std::vector<FeatureRow> X;
  std::vector<double> y;
};

/// y = step function of x0 plus linear term of x1 (+ optional noise).
Synth make_synth(std::size_t n, double noise, std::uint64_t seed) {
  util::Rng rng(seed);
  Synth s;
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(0, 10);
    const double x1 = rng.uniform(0, 1);
    const double y = (x0 > 5.0 ? 10.0 : 0.0) + 3.0 * x1 + rng.normal(0.0, noise);
    s.X.push_back({x0, x1});
    s.y.push_back(y);
  }
  return s;
}

TEST(DecisionTree, FitsConstantTarget) {
  DecisionTree t;
  util::Rng rng(1);
  t.fit({{0.0}, {1.0}, {2.0}}, {5.0, 5.0, 5.0}, TreeParams{}, rng);
  EXPECT_DOUBLE_EQ(t.predict({0.5}), 5.0);
  EXPECT_DOUBLE_EQ(t.predict({9.0}), 5.0);
  EXPECT_EQ(t.node_count(), 1u);  // pure target -> single leaf
}

TEST(DecisionTree, LearnsStepFunctionExactly) {
  const Synth s = make_synth(400, 0.0, 2);
  DecisionTree t;
  util::Rng rng(1);
  t.fit(s.X, s.y, TreeParams{}, rng);
  for (std::size_t i = 0; i < s.X.size(); ++i) {
    EXPECT_NEAR(t.predict(s.X[i]), s.y[i], 1e-9);
  }
}

TEST(DecisionTree, GeneralizesAStep) {
  const Synth s = make_synth(500, 0.1, 3);
  DecisionTree t;
  util::Rng rng(1);
  TreeParams p;
  p.min_samples_leaf = 5;
  t.fit(s.X, s.y, p, rng);
  EXPECT_NEAR(t.predict({2.0, 0.5}), 1.5, 1.0);
  EXPECT_NEAR(t.predict({8.0, 0.5}), 11.5, 1.0);
}

TEST(DecisionTree, RespectsMaxDepth) {
  const Synth s = make_synth(300, 0.0, 4);
  DecisionTree t;
  util::Rng rng(1);
  TreeParams p;
  p.max_depth = 3;
  t.fit(s.X, s.y, p, rng);
  EXPECT_LE(t.depth(), 3);
}

TEST(DecisionTree, MinSamplesLeafBoundsLeafSize) {
  const Synth s = make_synth(128, 0.5, 5);
  DecisionTree deep;
  DecisionTree shallow;
  util::Rng rng(1);
  TreeParams p1;
  p1.min_samples_leaf = 1;
  deep.fit(s.X, s.y, p1, rng);
  TreeParams p2;
  p2.min_samples_leaf = 32;
  shallow.fit(s.X, s.y, p2, rng);
  EXPECT_LT(shallow.node_count(), deep.node_count());
}

TEST(DecisionTree, RejectsBadInput) {
  DecisionTree t;
  util::Rng rng(1);
  EXPECT_THROW(t.fit({}, {}, TreeParams{}, rng), InvalidArgument);
  EXPECT_THROW(t.fit({{1.0}}, {1.0, 2.0}, TreeParams{}, rng), InvalidArgument);
  EXPECT_THROW(t.fit({{1.0}, {1.0, 2.0}}, {1.0, 2.0}, TreeParams{}, rng), InvalidArgument);
  EXPECT_THROW(t.predict({1.0}), InvalidArgument);  // not fitted
  t.fit({{1.0}, {2.0}}, {1.0, 2.0}, TreeParams{}, rng);
  EXPECT_THROW(t.predict({1.0, 2.0}), InvalidArgument);  // wrong width
}

TEST(DecisionTree, BootstrapSampleIndicesRespected) {
  // Fitting on indices {0,0,0} must ignore the other rows entirely.
  DecisionTree t;
  util::Rng rng(1);
  t.fit({{1.0}, {2.0}}, {7.0, 99.0}, {0, 0, 0}, TreeParams{}, rng);
  EXPECT_DOUBLE_EQ(t.predict({2.0}), 7.0);
}

TEST(RandomForest, PredictIsMeanOfTrees) {
  const Synth s = make_synth(200, 0.3, 6);
  RandomForest f;
  ForestParams p;
  p.n_trees = 16;
  f.fit(s.X, s.y, p, 9);
  const FeatureRow probe{3.3, 0.7};
  const std::vector<double> preds = testing_support::tree_predictions(f, probe);
  ASSERT_EQ(preds.size(), 16u);
  double mean = 0.0;
  for (double v : preds) {
    mean += v;
  }
  mean /= 16.0;
  EXPECT_NEAR(f.predict(probe), mean, 1e-12);
}

TEST(RandomForest, DeterministicForSeed) {
  const Synth s = make_synth(200, 0.3, 7);
  RandomForest a;
  RandomForest b;
  ForestParams p;
  p.n_trees = 8;
  a.fit(s.X, s.y, p, 42);
  b.fit(s.X, s.y, p, 42);
  for (int i = 0; i < 20; ++i) {
    const FeatureRow probe{static_cast<double>(i) * 0.5, 0.3};
    EXPECT_DOUBLE_EQ(a.predict(probe), b.predict(probe));
  }
}

TEST(RandomForest, SmoothsNoiseBetterThanSingleTree) {
  const Synth train = make_synth(400, 2.0, 8);
  const Synth test = make_synth(200, 0.0, 9);  // noiseless ground truth
  DecisionTree tree;
  util::Rng rng(1);
  tree.fit(train.X, train.y, TreeParams{}, rng);
  RandomForest forest;
  ForestParams p;
  p.n_trees = 64;
  forest.fit(train.X, train.y, p, 10);
  std::vector<double> tree_pred;
  std::vector<double> forest_pred;
  for (const auto& row : test.X) {
    tree_pred.push_back(tree.predict(row));
    forest_pred.push_back(forest.predict(row));
  }
  EXPECT_LT(ml::rmse(test.y, forest_pred), ml::rmse(test.y, tree_pred));
}

TEST(Jackknife, MatchesPaperFormulaExactly) {
  // Hand-computed: p = {1, 2, 3, 6}; mean = 3.
  // x_i = means with one removed: {11/3, 10/3, 3, 2}.
  // sum((3 - x_i)^2) = (2/3)^2 + (1/3)^2 + 0 + 1 = 14/9; / (n-1) = 14/27.
  EXPECT_NEAR(ml::jackknife_variance({1, 2, 3, 6}), 14.0 / 27.0, 1e-12);
}

TEST(Jackknife, ZeroForAgreementAndDegenerateInput) {
  EXPECT_DOUBLE_EQ(ml::jackknife_variance({5, 5, 5, 5}), 0.0);
  EXPECT_DOUBLE_EQ(ml::jackknife_variance({}), 0.0);
  EXPECT_DOUBLE_EQ(ml::jackknife_variance({3.0}), 0.0);
}

TEST(Jackknife, GrowsWithDisagreement) {
  EXPECT_LT(ml::jackknife_variance({1, 1.1, 0.9, 1}), ml::jackknife_variance({1, 5, -3, 1}));
}

TEST(Jackknife, ForestVarianceShrinksWithTrainingData) {
  // A forest trained on more data should be less uncertain at an
  // interpolated probe point.
  const Synth big = make_synth(500, 0.5, 11);
  const Synth small{std::vector<FeatureRow>(big.X.begin(), big.X.begin() + 12),
                    std::vector<double>(big.y.begin(), big.y.begin() + 12)};
  ForestParams p;
  p.n_trees = 64;
  RandomForest f_small;
  f_small.fit(small.X, small.y, p, 12);
  RandomForest f_big;
  f_big.fit(big.X, big.y, p, 12);
  const FeatureRow probe{5.2, 0.5};  // near the step edge: genuinely uncertain
  EXPECT_LT(ml::jackknife_variance(testing_support::tree_predictions(f_big, probe)),
            ml::jackknife_variance(testing_support::tree_predictions(f_small, probe)));
}

TEST(Metrics, KnownValues) {
  const std::vector<double> truth{1, 2, 3, 4};
  const std::vector<double> pred{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(ml::mae(truth, pred), 0.0);
  EXPECT_DOUBLE_EQ(ml::rmse(truth, pred), 0.0);
  EXPECT_DOUBLE_EQ(ml::r2(truth, pred), 1.0);
  const std::vector<double> off{2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(ml::mae(truth, off), 1.0);
  EXPECT_DOUBLE_EQ(ml::rmse(truth, off), 1.0);
  // Predicting the mean gives r2 = 0.
  const std::vector<double> mean_pred{2.5, 2.5, 2.5, 2.5};
  EXPECT_NEAR(ml::r2(truth, mean_pred), 0.0, 1e-12);
  EXPECT_THROW(ml::mae({1.0}, {1.0, 2.0}), InvalidArgument);
  EXPECT_THROW(ml::r2({}, {}), InvalidArgument);
}

TEST(Metrics, R2OfAConstantTargetIsOneIfExactElseZero) {
  // A constant target leaves no variance to explain: r2 is 1 for an exact
  // prediction and 0 for any other, however close.
  const std::vector<double> truth{3.0, 3.0, 3.0};
  EXPECT_EQ(ml::r2(truth, {3.0, 3.0, 3.0}), 1.0);
  EXPECT_EQ(ml::r2(truth, {3.0, 3.0, 3.0 + 1e-12}), 0.0);
  EXPECT_EQ(ml::r2(truth, {0.0, 0.0, 0.0}), 0.0);
}

// Property sweep: forests of any size fit their training data reasonably.
class ForestSizes : public testing::TestWithParam<int> {};

TEST_P(ForestSizes, TrainingFitIsReasonable) {
  const Synth s = make_synth(300, 0.2, 13);
  RandomForest f;
  ForestParams p;
  p.n_trees = GetParam();
  f.fit(s.X, s.y, p, 14);
  std::vector<double> pred;
  for (const auto& row : s.X) {
    pred.push_back(f.predict(row));
  }
  EXPECT_GT(ml::r2(s.y, pred), 0.95) << "n_trees=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Sizes, ForestSizes, testing::Values(1, 4, 16, 64, 100),
                         [](const testing::TestParamInfo<int>& info) {
                           return "trees" + std::to_string(info.param);
                         });

}  // namespace
