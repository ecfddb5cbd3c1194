// Tests for model persistence: trees, forests, and collective models must
// round-trip through JSON with bit-identical predictions.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "core/model.hpp"
#include "ml/forest.hpp"
#include "ml/tree.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace {

using namespace acclaim;

struct Synth {
  std::vector<ml::FeatureRow> X;
  std::vector<double> y;
};

Synth make_synth(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  Synth s;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.uniform(0, 8);
    const double b = rng.uniform(0, 4);
    s.X.push_back({a, b});
    s.y.push_back(2.0 * a + (b > 2.0 ? 10.0 : 0.0) + rng.normal(0, 0.1));
  }
  return s;
}

/// A bcast model of `n_trees` trees fitted on a small synthetic grid.
core::CollectiveModel small_bcast_model(int n_trees) {
  std::vector<core::LabeledPoint> data;
  double t = 5.0;
  for (coll::Algorithm a : coll::algorithms_for(coll::Collective::Bcast)) {
    for (std::uint64_t msg : {64ull, 4096ull, 262144ull}) {
      data.push_back({{{coll::Collective::Bcast, 4, 2, msg}, a}, t});
      t *= 1.3;
    }
  }
  ml::ForestParams params = core::default_forest_params();
  params.n_trees = n_trees;
  core::CollectiveModel model(coll::Collective::Bcast, params);
  model.fit(data, 3);
  return model;
}

TEST(TreeSerialization, RoundTripPredictionsIdentical) {
  const Synth s = make_synth(300, 1);
  const ml::DecisionTree tree = testing_support::fit_tree(s.X, s.y, ml::TreeParams{});
  // A tree's document is one entry of its forest's "trees" array.
  const util::Json doc =
      ml::RandomForest::from_trees({tree}).to_json().at("trees").as_array().front();
  const ml::DecisionTree back = ml::DecisionTree::from_json(doc);
  EXPECT_EQ(back.node_count(), tree.node_count());
  EXPECT_EQ(back.depth(), tree.depth());
  for (const auto& row : s.X) {
    EXPECT_DOUBLE_EQ(back.predict(row), tree.predict(row));
  }
  // Text round trip too.
  const auto reparsed = ml::DecisionTree::from_json(util::Json::parse(doc.dump()));
  EXPECT_DOUBLE_EQ(reparsed.predict(s.X[0]), tree.predict(s.X[0]));
}

TEST(TreeSerialization, RejectsMalformedDocuments) {
  EXPECT_THROW(ml::RandomForest{}.to_json(), InvalidArgument);  // unfitted
  EXPECT_THROW(ml::DecisionTree::from_json(util::Json::parse("{}")), NotFoundError);
  // Child index out of range.
  const std::string bad = R"({"n_features": 1, "depth": 1,
      "feature": [0], "threshold": [1.0], "left": [5], "right": [0],
      "value": [0.0]})";
  EXPECT_THROW(ml::DecisionTree::from_json(util::Json::parse(bad)), InvalidArgument);
  // Misaligned arrays.
  const std::string ragged = R"({"n_features": 1, "depth": 0,
      "feature": [-1, -1], "threshold": [0.0], "left": [-1], "right": [-1],
      "value": [1.0]})";
  EXPECT_THROW(ml::DecisionTree::from_json(util::Json::parse(ragged)), InvalidArgument);
}

TEST(ForestSerialization, RoundTripPredictionsIdentical) {
  const Synth s = make_synth(300, 3);
  ml::RandomForest forest;
  ml::ForestParams params;
  params.n_trees = 12;
  forest.fit(s.X, s.y, params, 4);
  const ml::RandomForest back = ml::RandomForest::from_json(forest.to_json());
  EXPECT_EQ(back.n_trees(), 12u);
  for (const auto& row : s.X) {
    EXPECT_DOUBLE_EQ(back.predict(row), forest.predict(row));
    EXPECT_EQ(testing_support::tree_predictions(back, row),
              testing_support::tree_predictions(forest, row));
  }
  EXPECT_THROW(ml::RandomForest::from_json(util::Json::parse("{\"model\": \"x\"}")),
               InvalidArgument);
}

TEST(ForestSerialization, DocumentFormatIsPinnedByteForByte) {
  // The on-disk model format in Json::dump()'s canonical form: a single-leaf
  // tree, then a tree with splits whose leaves carry -1 children and whose
  // depth is its longest root-to-leaf path. Loading and re-serializing must
  // reproduce these bytes exactly, so model files written by any build stay
  // readable and byte-identical.
  const std::string doc =
      R"({"model":"acclaim-random-forest-v1","trees":[)"
      R"({"n_features":2,"depth":0,"feature":[-1],"threshold":[0],"left":[-1],)"
      R"("right":[-1],"value":[2.5]},)"
      R"({"n_features":2,"depth":2,"feature":[0,1,-1,-1,-1],"threshold":[1.5,0.25,0,0,0],)"
      R"("left":[1,2,-1,-1,-1],"right":[4,3,-1,-1,-1],)"
      R"("value":[0,0,-1.125,3.0000000000000004,7.75]}]})";
  const ml::RandomForest forest = ml::RandomForest::from_json(util::Json::parse(doc));
  EXPECT_EQ(forest.to_json().dump(), doc);
  EXPECT_EQ(forest.n_trees(), 2u);
  // (2.5 + 7.75) / 2: the right branch of the split tree.
  EXPECT_EQ(forest.predict({2.0, 0.0}), 5.125);
}

TEST(ModelSerialization, RoundTripSelectionsIdentical) {
  const bench::Dataset& ds = testing_support::small_dataset();
  std::vector<core::LabeledPoint> data;
  for (const auto& p : ds.points(coll::Collective::Bcast)) {
    data.push_back({p, ds.at(p).mean_us});
  }
  core::CollectiveModel model(coll::Collective::Bcast);
  model.fit(data, 5);

  // Through a file, like a job would persist it.
  const std::string path =
      (std::filesystem::temp_directory_path() / "acclaim_model_test.json").string();
  model.to_json().dump_file(path);
  const core::CollectiveModel back =
      core::CollectiveModel::from_json(util::Json::parse_file(path));
  std::remove(path.c_str());

  EXPECT_EQ(back.collective(), coll::Collective::Bcast);
  EXPECT_EQ(back.training_points(), data.size());
  ASSERT_TRUE(back.trained());
  for (const auto& s : testing_support::small_space().scenarios(coll::Collective::Bcast)) {
    EXPECT_EQ(back.select(s), model.select(s)) << s.to_string();
  }
  const std::vector<bench::BenchmarkPoint> points = ds.points(coll::Collective::Bcast);
  const std::vector<double> back_var = back.jackknife_variances(points);
  const std::vector<double> var = model.jackknife_variances(points);
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_DOUBLE_EQ(back.predict_log_us(points[i]), model.predict_log_us(points[i]));
    EXPECT_DOUBLE_EQ(back_var[i], var[i]);
  }
}

TEST(ModelSerialization, ForestWidthMustMatchTheCollective) {
  // A bcast model whose trees declare three more features than bcast's
  // encoding would load and then fail every prediction.
  util::Json doc = small_bcast_model(4).to_json();
  EXPECT_NO_THROW(core::CollectiveModel::from_json(doc));
  for (util::Json& tree : doc["forest"]["trees"].as_array()) {
    tree["n_features"] = tree.at("n_features").as_number() + 3.0;
  }
  EXPECT_THROW(core::CollectiveModel::from_json(doc), InvalidArgument);
}

// Regression: feature, left and right were narrowed to int unchecked, so a
// split reading feature 2^32 + 3 loaded as feature 3, and a training_points
// of -1 loaded as SIZE_MAX.
TEST(ModelSerialization, RejectsIntegersOutsideTheirType) {
  const util::Json good = small_bcast_model(2).to_json();
  const auto root_tree = [](util::Json& doc) -> util::Json& {
    return doc["forest"]["trees"].as_array().front();
  };
  const auto expect_rejected = [](const util::Json& doc, const std::string& field) {
    try {
      core::CollectiveModel::from_json(doc);
      ADD_FAILURE() << "out-of-range " << field << " loaded";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  };
  constexpr double kTwo32 = 4294967296.0;
  for (const std::string field : {"feature", "left", "right"}) {
    for (const double shift : {kTwo32, -kTwo32}) {
      util::Json doc = good;
      util::Json& split = root_tree(doc)[field].as_array().front();
      ASSERT_GE(split.as_int(), 0) << "the first tree's root must split";
      split = split.as_number() + shift;
      expect_rejected(doc, field);
    }
  }
  for (const double depth : {-1.0, kTwo32 / 2}) {
    util::Json doc = good;
    root_tree(doc)["depth"] = depth;
    expect_rejected(doc, "depth");
  }
  util::Json doc = good;
  doc["training_points"] = -1;
  expect_rejected(doc, "training_points");
  EXPECT_NO_THROW(core::CollectiveModel::from_json(good));
}

TEST(ModelSerialization, UntrainedAndWrongFormatRejected) {
  core::CollectiveModel model(coll::Collective::Reduce);
  EXPECT_THROW(model.to_json(), InvalidArgument);
  EXPECT_THROW(core::CollectiveModel::from_json(util::Json::parse("{\"model\": \"other\"}")),
               InvalidArgument);
}

}  // namespace
