#include "core/model.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace acclaim::core {

ml::ForestParams default_forest_params() {
  ml::ForestParams p;
  p.n_trees = 100;
  p.bootstrap = true;
  p.tree.max_depth = 32;
  p.tree.min_samples_leaf = 1;
  p.tree.min_samples_split = 2;
  p.tree.max_features = -1;
  return p;
}

CollectiveModel::CollectiveModel(coll::Collective c, ml::ForestParams params)
    : collective_(c), params_(params) {}

void CollectiveModel::fit(const std::vector<LabeledPoint>& data, std::uint64_t seed) {
  require(!data.empty(), "CollectiveModel::fit requires at least one point");
  std::vector<ml::FeatureRow> X;
  std::vector<double> y;
  X.reserve(data.size());
  y.reserve(data.size());
  for (const LabeledPoint& lp : data) {
    require(lp.point.scenario.collective == collective_,
            "training point belongs to a different collective");
    require(lp.time_us > 0.0, "training time must be positive");
    X.push_back(encode_point(lp.point));
    y.push_back(std::log(lp.time_us));
  }
  // Copy-on-write publication: fit into a fresh forest and swap the shared
  // pointer. Snapshots holding the previous forest keep it alive and
  // unchanged; readers of *this* model see old-or-new, never a mid-fit state.
  auto next = std::make_shared<ml::RandomForest>();
  next->fit(X, y, params_, seed);
  forest_ = std::move(next);
  n_points_ = data.size();
}

double CollectiveModel::predict_log_us(const bench::BenchmarkPoint& point) const {
  require(trained(), "model not trained");
  return forest_->predict(encode_point(point));
}

double CollectiveModel::predict_us(const bench::BenchmarkPoint& point) const {
  return std::exp(predict_log_us(point));
}

namespace {

/// Rows per fused predict+jackknife kernel call. Fixed (never derived from
/// the thread count or pool state) so the block a point lands in — and with
/// it every floating-point reduction — is identical for any `--threads`.
/// 16 rows x 100 trees of doubles is a 12.5 KiB scratch block: deep in L1,
/// and enough rows for the tree-major walk to amortize its arena scans.
constexpr std::size_t kJackknifeBlock = 16;

/// Scenarios per select_batch chunk. A miss group of four or fewer is one
/// chunk, so it runs on the calling thread instead of waking the pool.
constexpr std::size_t kSelectGrain = 4;

}  // namespace

std::vector<double> CollectiveModel::jackknife_variances(
    const std::vector<bench::BenchmarkPoint>& points) const {
  if (points.empty()) {
    return {};
  }
  require(trained(), "model not trained");
  const telemetry::Span span("model.variance_sweep");
  std::vector<double> out(points.size(), 0.0);
  const std::size_t n_blocks = (points.size() + kJackknifeBlock - 1) / kJackknifeBlock;
  util::global_pool().parallel_for(0, n_blocks, [&](std::size_t b) {
    const std::size_t lo = b * kJackknifeBlock;
    const std::size_t hi = std::min(points.size(), lo + kJackknifeBlock);
    thread_local std::vector<ml::FeatureRow> rows;
    thread_local std::vector<double> scratch;
    rows.resize(hi - lo);
    for (std::size_t i = lo; i < hi; ++i) {
      rows[i - lo] = encode_point(points[i]);
    }
    forest_->jackknife_batch(rows.data(), hi - lo, out.data() + lo, nullptr, scratch);
  });
  static telemetry::Histogram& sweep_ms =
      telemetry::metrics().histogram("model.variance_sweep_ms", {0.01, 32});
  sweep_ms.observe(span.elapsed_ms());
  return out;
}

util::Json CollectiveModel::to_json() const {
  require(trained(), "cannot serialize an untrained model");
  util::Json doc = util::Json::object();
  doc["model"] = "acclaim-collective-model-v1";
  doc["collective"] = coll::collective_name(collective_);
  doc["training_points"] = static_cast<double>(n_points_);
  doc["forest"] = forest_->to_json();
  return doc;
}

CollectiveModel CollectiveModel::from_json(const util::Json& doc) {
  require(doc.contains("model") &&
              doc.at("model").as_string() == "acclaim-collective-model-v1",
          "unknown model serialization format");
  CollectiveModel model(coll::parse_collective(doc.at("collective").as_string()));
  model.forest_ =
      std::make_shared<const ml::RandomForest>(ml::RandomForest::from_json(doc.at("forest")));
  // A forest of another width would load but fail every prediction.
  require(model.forest_->n_features() == num_features(model.collective_),
          "model forest feature count does not match its collective's encoding");
  const std::int64_t training_points = doc.at("training_points").as_int();
  require(training_points >= 0, "model 'training_points' must be >= 0");
  model.n_points_ = static_cast<std::size_t>(training_points);
  return model;
}

/// One scoring call, in algorithms_for() order. `block` is the per-tree
/// prediction block jackknife_batch leaves in its scratch: row-major
/// [candidate x tree] in its first candidates x n_trees() entries.
struct CollectiveModel::Scores {
  std::vector<coll::Algorithm> algorithms;
  std::vector<ml::FeatureRow> rows;
  std::vector<double> means;
  std::vector<double> variances;
  std::vector<double> block;
  std::size_t best = 0;  ///< argmin of `means`
};

const CollectiveModel::Scores& CollectiveModel::score(const bench::Scenario& s) const {
  require(trained(), "model not trained");
  require(s.collective == collective_, "scenario belongs to a different collective");
  // One buffer set per thread: select_batch scores scenarios on pool workers.
  thread_local Scores sc;
  sc.algorithms = coll::algorithms_for(collective_);
  const std::size_t n = sc.algorithms.size();
  sc.rows.resize(n);
  sc.means.resize(n);
  sc.variances.resize(n);
  for (std::size_t a = 0; a < n; ++a) {
    sc.rows[a] = encode_point(bench::BenchmarkPoint{s, sc.algorithms[a]});
  }
  forest_->jackknife_batch(sc.rows.data(), n, sc.variances.data(), sc.means.data(), sc.block);
  // Strict `<`: ties keep the earlier algorithm.
  sc.best = 0;
  for (std::size_t a = 1; a < n; ++a) {
    if (sc.means[a] < sc.means[sc.best]) {
      sc.best = a;
    }
  }
  return sc;
}

coll::Algorithm CollectiveModel::select(const bench::Scenario& s) const {
  const Scores& sc = score(s);
  return sc.algorithms[sc.best];
}

std::vector<coll::Algorithm> CollectiveModel::select_batch(
    const std::vector<bench::Scenario>& scenarios) const {
  std::vector<coll::Algorithm> out(scenarios.size());
  util::global_pool().parallel_for(
      0, scenarios.size(), [&](std::size_t i) { out[i] = select(scenarios[i]); }, kSelectGrain);
  return out;
}

SelectionExplanation CollectiveModel::explain(const bench::Scenario& s) const {
  const Scores& sc = score(s);
  const std::size_t n = sc.algorithms.size();
  const std::size_t nt = forest_->n_trees();
  SelectionExplanation ex;
  ex.candidates.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    ex.candidates.push_back({sc.algorithms[c], sc.means[c], 0});
  }
  ex.tree_evals = static_cast<std::int64_t>(n * nt);

  // Per-tree votes: each tree votes for the candidate it scored strictly
  // fastest (ties keep the earlier candidate, matching select()'s `<`).
  for (std::size_t t = 0; t < nt; ++t) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < n; ++c) {
      if (sc.block[c * nt + t] < sc.block[best * nt + t]) {
        best = c;
      }
    }
    ++ex.candidates[best].votes;
  }

  // Runner-up over the candidate means, with select()'s tie-break.
  const std::size_t chosen = sc.best;
  ex.chosen = sc.algorithms[chosen];
  ex.runner_up = ex.chosen;
  if (n > 1) {
    std::size_t second = chosen == 0 ? 1 : 0;
    for (std::size_t c = 0; c < n; ++c) {
      if (c != chosen && sc.means[c] < sc.means[second]) {
        second = c;
      }
    }
    ex.runner_up = sc.algorithms[second];
    ex.has_runner_up = true;
    ex.margin = std::exp(sc.means[second] - sc.means[chosen]) - 1.0;
  }
  ex.variance = sc.variances[chosen];
  ex.features = sc.rows[chosen];
  return ex;
}

}  // namespace acclaim::core
