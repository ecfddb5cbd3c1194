#include "ml/forest.hpp"

#include <algorithm>
#include <utility>

#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace acclaim::ml {

void RandomForest::fit(const std::vector<FeatureRow>& X, const std::vector<double>& y,
                       const ForestParams& params, std::uint64_t seed) {
  require(params.n_trees >= 1, "forest requires at least one tree");
  require(!X.empty() && X.size() == y.size(), "forest requires non-empty, aligned X/y");
  const telemetry::Span span("forest.fit");
  std::vector<DecisionTree> trees(static_cast<std::size_t>(params.n_trees));
  // One independent stream per tree, derived from the run seed *before* the
  // parallel region. Tree i always sees the i-th derived seed, so the forest
  // is bitwise-identical for any thread count (and identical to the old
  // sequential rng.split() chain, which produced exactly these seeds).
  util::Rng rng(seed);
  std::vector<std::uint64_t> tree_seeds(trees.size());
  for (std::uint64_t& s : tree_seeds) {
    s = rng.next_u64();
  }
  util::global_pool().parallel_for(0, trees.size(), [&](std::size_t i) {
    util::Rng tree_rng(tree_seeds[i]);
    if (params.bootstrap) {
      std::vector<std::size_t> sample(X.size());
      for (auto& s : sample) {
        s = tree_rng.index(X.size());
      }
      trees[i].fit(X, y, sample, params.tree, tree_rng);
    } else {
      trees[i].fit(X, y, params.tree, tree_rng);
    }
  });
  // Flatten once per fit and drop the trees: the arena is immutable until
  // the next fit, so every prediction from here on is a pure read.
  *this = from_trees(trees);
  static telemetry::Counter& fits = telemetry::metrics().counter("ml.forest.fits");
  static telemetry::Histogram& fit_ms =
      telemetry::metrics().histogram("ml.forest.fit_ms", {0.01, 32});
  fits.add();
  fit_ms.observe(span.elapsed_ms());
}

RandomForest RandomForest::from_trees(const std::vector<DecisionTree>& trees) {
  require(!trees.empty(), "RandomForest::from_trees requires at least one tree");
  RandomForest f;
  f.n_features_ = trees.front().n_features();
  std::size_t total = 0;
  for (const DecisionTree& tree : trees) {
    require(tree.fitted(), "RandomForest::from_trees requires fitted trees");
    require(tree.n_features() == f.n_features_,
            "RandomForest::from_trees requires trees over the same feature space");
    total += tree.node_count();
  }
  f.feature_.reserve(total);
  f.threshold_.reserve(total);
  f.left_.reserve(total);
  f.right_.reserve(total);
  f.value_.reserve(total);
  f.roots_.reserve(trees.size());
  f.depth_.reserve(trees.size());
  for (const DecisionTree& tree : trees) {
    const auto base = static_cast<std::int32_t>(f.feature_.size());
    f.roots_.push_back(base);  // each tree's root is its node 0
    std::int32_t arena_index = base;
    for (const DecisionTree::Node& node : tree.nodes()) {
      f.feature_.push_back(node.feature);
      f.threshold_.push_back(node.threshold);
      // Child indices become arena-absolute. Leaves self-loop: stepping a
      // row already at its leaf leaves it there, so the batched kernel can
      // run every row for the tree's full depth unconditionally.
      f.left_.push_back(node.feature < 0 ? arena_index : node.left + base);
      f.right_.push_back(node.feature < 0 ? arena_index : node.right + base);
      f.value_.push_back(node.value);
      ++arena_index;
    }
    // Max root-to-leaf edge count, by explicit DFS (child order in
    // from_json-built trees is only bounds-checked, so no layout assumption;
    // the visit bound rejects cyclic node graphs instead of spinning).
    std::int32_t depth = 0;
    std::size_t visits = 0;
    std::vector<std::pair<std::int32_t, std::int32_t>> stack{{0, 0}};
    while (!stack.empty()) {
      const auto [idx, d] = stack.back();
      stack.pop_back();
      require(++visits <= tree.node_count(), "tree node graph is not a tree");
      const DecisionTree::Node& node = tree.nodes()[static_cast<std::size_t>(idx)];
      if (node.feature < 0) {
        depth = std::max(depth, d);
      } else {
        stack.push_back({node.left, d + 1});
        stack.push_back({node.right, d + 1});
      }
    }
    f.depth_.push_back(depth);
  }
  return f;
}

namespace {

/// One root-to-leaf walk over the arena. The comparison is the same
/// expression DecisionTree::predict evaluates (`x[f] <= threshold`), so NaN
/// features route right in both.
inline double walk(const double* x, std::int32_t root, const std::int32_t* feature,
                   const double* threshold, const std::int32_t* left,
                   const std::int32_t* right, const double* value) {
  std::int32_t cur = root;
  std::int32_t f = feature[cur];
  while (f >= 0) {
    cur = x[static_cast<std::size_t>(f)] <= threshold[cur] ? left[cur] : right[cur];
    f = feature[cur];
  }
  return value[cur];
}

}  // namespace

double RandomForest::predict(const FeatureRow& row) const {
  require(fitted(), "RandomForest::predict called before fit");
  require(row.size() == n_features_, "feature count mismatch in predict");
  double sum = 0.0;
  for (const std::int32_t root : roots_) {
    sum += walk(row.data(), root, feature_.data(), threshold_.data(), left_.data(),
                right_.data(), value_.data());
  }
  return sum / static_cast<double>(roots_.size());
}

void RandomForest::predict_trees_batch(const FeatureRow* rows, std::size_t n_rows,
                                       double* out) const {
  require(fitted(), "RandomForest::predict_trees_batch called before fit");
  for (std::size_t r = 0; r < n_rows; ++r) {
    require(rows[r].size() == n_features_, "feature count mismatch in predict_trees_batch");
  }
  const std::size_t nt = roots_.size();
  const std::int32_t* feature = feature_.data();
  const double* threshold = threshold_.data();
  const std::int32_t* left = left_.data();
  const std::int32_t* right = right_.data();
  const double* value = value_.data();
  // Tree-major: tree t's slice of the arena stays cache-hot while the whole
  // batch of rows walks it; each (tree, row) pair writes its own slot.
  //
  // Rows advance kLanes at a time in lockstep for depth_[t] levels. A single
  // walk is a chain of dependent loads (node -> child -> grandchild), so one
  // row at a time leaves the core idle between hops; kLanes independent
  // chains in flight cover that latency. The per-level step is branchless:
  // leaves self-loop (left == right == self), so a lane that reached its
  // leaf early re-selects the same node — clamping its negative split
  // feature to 0 only feeds the comparison whose two outcomes are identical.
  // Each lane evaluates the exact `x[f] <= threshold` expression of the
  // scalar walk and lands on the same leaf, so results are bit-identical and
  // independent of the lane count.
  constexpr std::size_t kLanes = 8;
  for (std::size_t t = 0; t < nt; ++t) {
    const std::int32_t root = roots_[t];
    const std::int32_t depth = depth_[t];
    std::size_t r = 0;
    for (; r + kLanes <= n_rows; r += kLanes) {
      std::int32_t cur[kLanes];
      const double* x[kLanes];
      for (std::size_t l = 0; l < kLanes; ++l) {
        cur[l] = root;
        x[l] = rows[r + l].data();
      }
      for (std::int32_t level = 0; level < depth; ++level) {
        for (std::size_t l = 0; l < kLanes; ++l) {
          const std::int32_t c = cur[l];
          const std::int32_t f = std::max(feature[c], 0);
          cur[l] = x[l][static_cast<std::size_t>(f)] <= threshold[c] ? left[c] : right[c];
        }
      }
      for (std::size_t l = 0; l < kLanes; ++l) {
        out[(r + l) * nt + t] = value[cur[l]];
      }
    }
    for (; r < n_rows; ++r) {
      out[r * nt + t] = walk(rows[r].data(), root, feature, threshold, left, right, value);
    }
  }
}

void RandomForest::jackknife_batch(const FeatureRow* rows, std::size_t n_rows,
                                   double* variances, double* means,
                                   std::vector<double>& scratch) const {
  require(fitted(), "RandomForest::jackknife_batch called before fit");
  if (n_rows == 0) {
    return;
  }
  const std::size_t nt = roots_.size();
  if (scratch.size() < n_rows * nt) {
    scratch.resize(n_rows * nt);
  }
  predict_trees_batch(rows, n_rows, scratch.data());
  // Per-row reductions in tree order: the mean accumulation matches
  // predict(), the variance matches ml::jackknife_variance — both serially
  // over the same values, so the fusion changes no bit.
  for (std::size_t r = 0; r < n_rows; ++r) {
    const double* preds = scratch.data() + r * nt;
    if (variances != nullptr) {
      variances[r] = jackknife_variance(preds, nt);
    }
    if (means != nullptr) {
      double sum = 0.0;
      for (std::size_t t = 0; t < nt; ++t) {
        sum += preds[t];
      }
      means[r] = sum / static_cast<double>(nt);
    }
  }
  // Hot path (every sweep block and every selection): a relaxed increment
  // only, no clock reads.
  static telemetry::Counter& batched = telemetry::metrics().counter("ml.forest.batched_rows");
  batched.add(n_rows);
}

util::Json RandomForest::to_json() const {
  require(fitted(), "cannot serialize an unfitted forest");
  util::Json doc = util::Json::object();
  doc["model"] = "acclaim-random-forest-v1";
  util::Json trees = util::Json::array();
  for (std::size_t t = 0; t < roots_.size(); ++t) {
    const std::int32_t base = roots_[t];
    const std::size_t end =
        t + 1 < roots_.size() ? static_cast<std::size_t>(roots_[t + 1]) : feature_.size();
    util::Json tree = util::Json::object();
    tree["n_features"] = static_cast<double>(n_features_);
    tree["depth"] = depth_[t];
    // Column-wise arrays keep the document compact and fast to parse.
    util::Json feature = util::Json::array();
    util::Json threshold = util::Json::array();
    util::Json left = util::Json::array();
    util::Json right = util::Json::array();
    util::Json value = util::Json::array();
    for (auto i = static_cast<std::size_t>(base); i < end; ++i) {
      const bool leaf = feature_[i] < 0;
      feature.push_back(feature_[i]);
      threshold.push_back(threshold_[i]);
      left.push_back(leaf ? -1 : left_[i] - base);
      right.push_back(leaf ? -1 : right_[i] - base);
      value.push_back(value_[i]);
    }
    tree["feature"] = std::move(feature);
    tree["threshold"] = std::move(threshold);
    tree["left"] = std::move(left);
    tree["right"] = std::move(right);
    tree["value"] = std::move(value);
    trees.push_back(std::move(tree));
  }
  doc["trees"] = std::move(trees);
  return doc;
}

RandomForest RandomForest::from_json(const util::Json& doc) {
  require(doc.contains("model") && doc.at("model").as_string() == "acclaim-random-forest-v1",
          "unknown forest serialization format");
  std::vector<DecisionTree> trees;
  for (const util::Json& tree : doc.at("trees").as_array()) {
    trees.push_back(DecisionTree::from_json(tree));
  }
  require(!trees.empty(), "serialized forest must contain at least one tree");
  return from_trees(trees);
}

double jackknife_variance(const std::vector<double>& values) {
  return jackknife_variance(values.data(), values.size());
}

double jackknife_variance(const double* values, std::size_t n) {
  if (n < 2) {
    return 0.0;
  }
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += values[i];
  }
  const double mean = sum / static_cast<double>(n);
  // The i-th jackknife sample is (sum - v_i) / (n - 1), so
  // mean - sample_i = (v_i - mean) / (n - 1).
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = (values[i] - mean) / static_cast<double>(n - 1);
    acc += d * d;
  }
  return acc / static_cast<double>(n - 1);
}

}  // namespace acclaim::ml
