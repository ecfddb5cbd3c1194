#include "ml/forest.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace acclaim::ml {

namespace {

/// Split candidates must beat this variance reduction (strictly positive).
constexpr double kMinReduction = -1e-12;

/// The training set of one forest fit, laid out once for every tree: X
/// column-major, and per feature the row indices in ascending (value, row)
/// order. Read-only while the trees grow, so the pool's threads share it.
class Presorted {
 public:
  Presorted(const std::vector<FeatureRow>& X, const std::vector<double>& y)
      : n_rows_(X.size()), n_features_(X.empty() ? 0 : X[0].size()), y_(y) {
    require(!X.empty() && X.size() == y.size(), "forest requires non-empty, aligned X/y");
    require(n_rows_ <= std::numeric_limits<std::uint32_t>::max(),
            "forest training set has too many rows");
    require(n_features_ >= 1, "rows must have at least one feature");
    x_.resize(n_features_ * n_rows_);
    for (std::size_t r = 0; r < n_rows_; ++r) {
      require(X[r].size() == n_features_, "ragged feature matrix");
      require(std::isfinite(y[r]), "forest targets must be finite");
      for (std::size_t f = 0; f < n_features_; ++f) {
        require(std::isfinite(X[r][f]), "forest features must be finite");
        x_[f * n_rows_ + r] = X[r][f];
      }
    }
    order_.resize(n_features_ * n_rows_);
    for (std::size_t f = 0; f < n_features_; ++f) {
      const auto first = order_.begin() + static_cast<std::ptrdiff_t>(f * n_rows_);
      const auto last = first + static_cast<std::ptrdiff_t>(n_rows_);
      std::iota(first, last, std::uint32_t{0});
      const double* xf = column(f);
      // Stable by value over ascending rows: ties keep row order.
      std::stable_sort(first, last,
                       [xf](std::uint32_t a, std::uint32_t b) { return xf[a] < xf[b]; });
    }
  }

  std::size_t n_rows() const noexcept { return n_rows_; }
  std::size_t n_features() const noexcept { return n_features_; }
  const double* column(std::size_t f) const noexcept { return x_.data() + f * n_rows_; }
  const std::uint32_t* order(std::size_t f) const noexcept {
    return order_.data() + f * n_rows_;
  }
  const std::vector<double>& y() const noexcept { return y_; }

 private:
  std::size_t n_rows_;
  std::size_t n_features_;
  const std::vector<double>& y_;
  std::vector<double> x_;
  std::vector<std::uint32_t> order_;
};

/// Grows one CART tree on a Presorted training set, row r taken counts[r]
/// times. The tree keeps F+1 lists of its counted rows, each row's copies
/// back to back: list f in feature f's (value, row) order, list F in row
/// order. A node is the same segment [begin, end) of every list: its sums
/// run over list F, each considered feature scans its own list, and a split
/// partitions all F+1 segments stably, so every child segment stays in
/// order and no node sorts.
class TreeGrower {
 public:
  TreeGrower(const Presorted& data, const std::vector<std::uint32_t>& counts,
             const TreeParams& params, util::Rng& rng)
      : data_(data), params_(params), rng_(rng), n_features_(data.n_features()) {
    for (const std::uint32_t c : counts) {
      n_ += c;
    }
    require(n_ >= 1, "a tree needs at least one sampled row");
    lists_.resize((n_features_ + 1) * n_);
    for (std::size_t f = 0; f <= n_features_; ++f) {
      std::uint32_t* list = lists_.data() + f * n_;
      const std::uint32_t* order = f < n_features_ ? data.order(f) : nullptr;
      std::size_t w = 0;
      for (std::size_t k = 0; k < data.n_rows(); ++k) {
        const std::uint32_t r = order != nullptr ? order[k] : static_cast<std::uint32_t>(k);
        for (std::uint32_t c = 0; c < counts[r]; ++c) {
          list[w++] = r;
        }
      }
    }
    right_.resize(n_);
    goes_left_.resize(data.n_rows());
    nodes_.reserve(2 * n_);
  }

  DecisionTree grow() {
    build(0, n_, 0);
    return DecisionTree(std::move(nodes_), n_features_, depth_);
  }

 private:
  std::int32_t build(std::size_t begin, std::size_t end, int depth) {
    depth_ = std::max(depth_, depth);
    const std::size_t n = end - begin;
    const double* y = data_.y().data();
    const std::uint32_t* rows = lists_.data() + n_features_ * n_;

    double sum = 0.0;
    double sum2 = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      const double yi = y[rows[i]];
      sum += yi;
      sum2 += yi * yi;
    }
    const double mean = sum / static_cast<double>(n);
    // Total sum of squared deviations (not variance: avoids dividing twice).
    const double sse = sum2 - sum * mean;

    auto make_leaf = [&]() -> std::int32_t {
      DecisionTree::Node leaf;
      leaf.value = mean;
      nodes_.push_back(leaf);
      return static_cast<std::int32_t>(nodes_.size() - 1);
    };

    if (depth >= params_.max_depth || n < static_cast<std::size_t>(params_.min_samples_split) ||
        sse <= 1e-12) {
      return make_leaf();
    }

    const auto min_leaf = static_cast<std::size_t>(params_.min_samples_leaf);
    int best_feature = -1;
    double best_threshold = 0.0;
    double best_score = kMinReduction;
    auto scan = [&](std::size_t f) {
      const std::uint32_t* list = lists_.data() + f * n_;
      const double* xf = data_.column(f);
      double left_sum = 0.0;
      double left_sum2 = 0.0;
      for (std::size_t k = begin; k + 1 < end; ++k) {
        const double yi = y[list[k]];
        left_sum += yi;
        left_sum2 += yi * yi;
        const double xv = xf[list[k]];
        const double xn = xf[list[k + 1]];
        if (xn <= xv) {
          continue;  // no valid threshold between identical values
        }
        const std::size_t nl = k + 1 - begin;
        const std::size_t nr = n - nl;
        if (nl < min_leaf || nr < min_leaf) {
          continue;
        }
        const double right_sum = sum - left_sum;
        const double right_sum2 = sum2 - left_sum2;
        const double sse_l = left_sum2 - left_sum * left_sum / static_cast<double>(nl);
        const double sse_r = right_sum2 - right_sum * right_sum / static_cast<double>(nr);
        const double score = sse - sse_l - sse_r;  // variance reduction
        if (score > best_score) {
          best_score = score;
          best_feature = static_cast<int>(f);
          best_threshold = 0.5 * (xv + xn);
        }
      }
    };
    // Candidate features: all in index order, or a uniform subset of size
    // max_features in the order the rng draws it.
    if (params_.max_features < 0 || params_.max_features >= static_cast<int>(n_features_)) {
      for (std::size_t f = 0; f < n_features_; ++f) {
        scan(f);
      }
    } else {
      for (const std::size_t f : rng_.sample_without_replacement(
               n_features_, static_cast<std::size_t>(params_.max_features))) {
        scan(f);
      }
    }

    if (best_feature < 0) {
      return make_leaf();
    }

    // One left flag per row of the node, then a stable branch-free
    // partition of every list's segment by it: left rows keep their order
    // in place, right rows go through right_ and land after them.
    const double* xb = data_.column(static_cast<std::size_t>(best_feature));
    std::size_t n_left = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const bool left = xb[rows[i]] <= best_threshold;
      goes_left_[rows[i]] = left;
      n_left += left;
    }
    if (n_left == 0 || n_left == n) {
      return make_leaf();  // numeric degeneracy; refuse an empty child
    }
    for (std::size_t f = 0; f <= n_features_; ++f) {
      std::uint32_t* list = lists_.data() + f * n_;
      std::size_t w = begin;
      std::size_t w_right = 0;
      for (std::size_t i = begin; i < end; ++i) {
        const std::uint32_t r = list[i];
        const bool left = goes_left_[r] != 0;
        list[w] = r;
        right_[w_right] = r;
        w += left;
        w_right += !left;
      }
      std::copy(right_.begin(), right_.begin() + static_cast<std::ptrdiff_t>(w_right),
                list + w);
    }
    const std::size_t mid = begin + n_left;

    // Reserve this node's slot before recursing (children append after it).
    nodes_.emplace_back();
    const auto self = static_cast<std::int32_t>(nodes_.size() - 1);
    const std::int32_t left = build(begin, mid, depth + 1);
    const std::int32_t right = build(mid, end, depth + 1);
    DecisionTree::Node& node = nodes_[static_cast<std::size_t>(self)];
    node.feature = best_feature;
    node.threshold = best_threshold;
    node.left = left;
    node.right = right;
    return self;
  }

  const Presorted& data_;
  const TreeParams& params_;
  util::Rng& rng_;
  std::size_t n_features_;
  std::size_t n_ = 0;                      ///< counted rows (sum of counts)
  std::vector<std::uint32_t> lists_;       ///< (F+1) lists of n_ row indices
  std::vector<std::uint32_t> right_;       ///< partition scratch
  std::vector<unsigned char> goes_left_;   ///< per row: left of the current split
  std::vector<DecisionTree::Node> nodes_;  ///< pre-order
  int depth_ = 0;
};

}  // namespace

void RandomForest::fit(const std::vector<FeatureRow>& X, const std::vector<double>& y,
                       const ForestParams& params, std::uint64_t seed) {
  require(params.n_trees >= 1, "forest requires at least one tree");
  const telemetry::Span span("forest.fit");
  const Presorted data(X, y);
  std::vector<DecisionTree> trees(static_cast<std::size_t>(params.n_trees));
  // One independent stream per tree, derived from the run seed *before* the
  // parallel region. Tree i always sees the i-th derived seed, so the forest
  // is bitwise-identical for any thread count.
  util::Rng rng(seed);
  std::vector<std::uint64_t> tree_seeds(trees.size());
  for (std::uint64_t& s : tree_seeds) {
    s = rng.next_u64();
  }
  const std::size_t n = data.n_rows();
  util::global_pool().parallel_for(0, trees.size(), [&](std::size_t i) {
    util::Rng tree_rng(tree_seeds[i]);
    // The bootstrap as per-row counts: N draws with replacement.
    std::vector<std::uint32_t> counts(n, params.bootstrap ? 0u : 1u);
    if (params.bootstrap) {
      for (std::size_t k = 0; k < n; ++k) {
        ++counts[tree_rng.index(n)];
      }
    }
    trees[i] = TreeGrower(data, counts, params.tree, tree_rng).grow();
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
