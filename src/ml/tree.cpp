#include "ml/tree.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/error.hpp"

namespace acclaim::ml {

void DecisionTree::fit(const std::vector<FeatureRow>& X, const std::vector<double>& y,
                       const TreeParams& params, util::Rng& rng) {
  std::vector<std::size_t> idx(X.size());
  std::iota(idx.begin(), idx.end(), 0);
  fit(X, y, idx, params, rng);
}

void DecisionTree::fit(const std::vector<FeatureRow>& X, const std::vector<double>& y,
                       const std::vector<std::size_t>& sample_idx, const TreeParams& params,
                       util::Rng& rng) {
  require(!X.empty(), "DecisionTree::fit requires at least one row");
  require(X.size() == y.size(), "X and y must have the same length");
  require(!sample_idx.empty(), "DecisionTree::fit requires a non-empty sample");
  n_features_ = X[0].size();
  require(n_features_ >= 1, "rows must have at least one feature");
  for (const auto& row : X) {
    require(row.size() == n_features_, "ragged feature matrix");
  }
  for (std::size_t i : sample_idx) {
    require(i < X.size(), "sample index out of range");
  }
  nodes_.clear();
  depth_ = 0;
  std::vector<std::size_t> idx = sample_idx;
  build(X, y, idx, 0, idx.size(), 0, params, rng);
}

std::int32_t DecisionTree::build(const std::vector<FeatureRow>& X, const std::vector<double>& y,
                                 std::vector<std::size_t>& idx, std::size_t begin,
                                 std::size_t end, int depth, const TreeParams& params,
                                 util::Rng& rng) {
  depth_ = std::max(depth_, depth);
  const std::size_t n = end - begin;

  double sum = 0.0;
  double sum2 = 0.0;
  for (std::size_t i = begin; i < end; ++i) {
    sum += y[idx[i]];
    sum2 += y[idx[i]] * y[idx[i]];
  }
  const double mean = sum / static_cast<double>(n);
  // Total sum of squared deviations (not variance: avoids dividing twice).
  const double sse = sum2 - sum * mean;

  auto make_leaf = [&]() -> std::int32_t {
    Node leaf;
    leaf.value = mean;
    nodes_.push_back(leaf);
    return static_cast<std::int32_t>(nodes_.size() - 1);
  };

  if (depth >= params.max_depth || n < static_cast<std::size_t>(params.min_samples_split) ||
      sse <= 1e-12) {
    return make_leaf();
  }

  // Candidate features: all, or a uniform subset of size max_features.
  std::vector<int> features;
  if (params.max_features < 0 ||
      params.max_features >= static_cast<int>(n_features_)) {
    features.resize(n_features_);
    std::iota(features.begin(), features.end(), 0);
  } else {
    const auto pick = rng.sample_without_replacement(
        n_features_, static_cast<std::size_t>(params.max_features));
    for (std::size_t f : pick) {
      features.push_back(static_cast<int>(f));
    }
  }

  int best_feature = -1;
  double best_threshold = 0.0;
  double best_score = -1e-12;  // require a strictly positive reduction
  std::vector<std::size_t> order(idx.begin() + static_cast<std::ptrdiff_t>(begin),
                                 idx.begin() + static_cast<std::ptrdiff_t>(end));
  for (int f : features) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return X[a][static_cast<std::size_t>(f)] < X[b][static_cast<std::size_t>(f)];
    });
    double left_sum = 0.0;
    double left_sum2 = 0.0;
    for (std::size_t k = 0; k + 1 < n; ++k) {
      const double yi = y[order[k]];
      left_sum += yi;
      left_sum2 += yi * yi;
      const double xv = X[order[k]][static_cast<std::size_t>(f)];
      const double xn = X[order[k + 1]][static_cast<std::size_t>(f)];
      if (xn <= xv) {
        continue;  // no valid threshold between identical values
      }
      const std::size_t nl = k + 1;
      const std::size_t nr = n - nl;
      if (nl < static_cast<std::size_t>(params.min_samples_leaf) ||
          nr < static_cast<std::size_t>(params.min_samples_leaf)) {
        continue;
      }
      const double right_sum = sum - left_sum;
      const double right_sum2 = sum2 - left_sum2;
      const double sse_l = left_sum2 - left_sum * left_sum / static_cast<double>(nl);
      const double sse_r = right_sum2 - right_sum * right_sum / static_cast<double>(nr);
      const double score = sse - sse_l - sse_r;  // variance reduction
      if (score > best_score) {
        best_score = score;
        best_feature = f;
        best_threshold = 0.5 * (xv + xn);
      }
    }
  }

  if (best_feature < 0) {
    return make_leaf();
  }

  // Partition [begin, end) of idx in place around the threshold.
  const auto mid_it = std::partition(
      idx.begin() + static_cast<std::ptrdiff_t>(begin),
      idx.begin() + static_cast<std::ptrdiff_t>(end), [&](std::size_t i) {
        return X[i][static_cast<std::size_t>(best_feature)] <= best_threshold;
      });
  const auto mid = static_cast<std::size_t>(mid_it - idx.begin());
  if (mid == begin || mid == end) {
    return make_leaf();  // numeric degeneracy; refuse an empty child
  }

  // Reserve this node's slot before recursing (children append after it).
  nodes_.emplace_back();
  const auto self = static_cast<std::int32_t>(nodes_.size() - 1);
  const std::int32_t left = build(X, y, idx, begin, mid, depth + 1, params, rng);
  const std::int32_t right = build(X, y, idx, mid, end, depth + 1, params, rng);
  nodes_[static_cast<std::size_t>(self)].feature = best_feature;
  nodes_[static_cast<std::size_t>(self)].threshold = best_threshold;
  nodes_[static_cast<std::size_t>(self)].left = left;
  nodes_[static_cast<std::size_t>(self)].right = right;
  return self;
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
  DecisionTree tree;
  const std::int32_t n_features = int32_field(doc.at("n_features"), "n_features");
  require(n_features >= 1, "serialized tree must have features");
  tree.n_features_ = static_cast<std::size_t>(n_features);
  tree.depth_ = int32_field(doc.at("depth"), "depth");
  require(tree.depth_ >= 0, "serialized tree 'depth' must be in [0, INT_MAX]");
  const auto& feature = doc.at("feature").as_array();
  const auto& threshold = doc.at("threshold").as_array();
  const auto& left = doc.at("left").as_array();
  const auto& right = doc.at("right").as_array();
  const auto& value = doc.at("value").as_array();
  const std::size_t n = feature.size();
  require(n >= 1 && threshold.size() == n && left.size() == n && right.size() == n &&
              value.size() == n,
          "serialized tree arrays must be non-empty and aligned");
  tree.nodes_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    Node& node = tree.nodes_[i];
    node.feature = int32_field(feature[i], "feature");
    node.threshold = threshold[i].as_number();
    node.left = int32_field(left[i], "left");
    node.right = int32_field(right[i], "right");
    node.value = value[i].as_number();
    require(node.feature < static_cast<int>(tree.n_features_),
            "serialized tree references a feature out of range");
    if (node.feature >= 0) {
      require(node.left >= 0 && node.left < static_cast<std::int32_t>(n) && node.right >= 0 &&
                  node.right < static_cast<std::int32_t>(n),
              "serialized tree has child indices out of range");
    }
  }
  return tree;
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
