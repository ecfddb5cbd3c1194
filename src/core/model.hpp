// The autotuner's performance model: one random forest per collective with
// "algorithm" as a feature (§V), trained on log execution time.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "benchdata/point.hpp"
#include "core/feature_space.hpp"
#include "ml/forest.hpp"

namespace acclaim::core {

/// One collected training example.
struct LabeledPoint {
  bench::BenchmarkPoint point;
  double time_us = 0.0;
};

/// Forest defaults matching scikit-learn's RandomForestRegressor as the
/// paper uses it (100 estimators, unlimited depth, bootstrap).
ml::ForestParams default_forest_params();

/// A fully-explained selection decision, produced by CollectiveModel::explain
/// for the decision flight recorder. Candidates appear in algorithms_for()
/// order; explain() and select() read one scoring call, so `chosen` is the
/// argmin select() computes by construction.
struct SelectionExplanation {
  struct Candidate {
    coll::Algorithm algorithm;
    double predicted_log_us = 0.0;
    int votes = 0;  ///< trees that scored this algorithm (strictly) fastest
  };
  std::vector<Candidate> candidates;
  std::vector<double> features;  ///< encoded row of the chosen candidate
  coll::Algorithm chosen;
  coll::Algorithm runner_up;  ///< == chosen when there is only one candidate
  bool has_runner_up = false;
  /// exp(runner_log - chosen_log) - 1: how much slower the second-best
  /// algorithm is predicted to be. 0 without a runner-up.
  double margin = 0.0;
  /// Jackknife variance of the chosen candidate's per-tree predictions.
  double variance = 0.0;
  /// Virtual decision cost: tree evaluations spent (candidates x trees).
  std::int64_t tree_evals = 0;
};

/// Predicts per-algorithm execution time for a collective and selects the
/// algorithm with the lowest prediction. select(), select_batch() and
/// explain() share one routine: a scenario's candidate algorithms are encoded
/// and scored by one RandomForest::jackknife_batch call, whose means give the
/// argmin and whose per-tree block and variances give the explanation.
///
/// Training state vs. serving snapshots: the fitted forest lives behind a
/// shared_ptr-to-const. fit() builds a *new* forest and swaps the pointer in,
/// never mutating the one it replaces, so copying a trained CollectiveModel
/// is O(1) (the copies share the immutable forest) and a copy taken before a
/// re-fit keeps answering from the forest it was copied with. This is the
/// copy-on-write contract the acclaimd model store builds snapshot
/// publication on (serve::ModelStore).
class CollectiveModel {
 public:
  CollectiveModel() = default;
  explicit CollectiveModel(coll::Collective c, ml::ForestParams params = default_forest_params());

  coll::Collective collective() const noexcept { return collective_; }
  bool trained() const noexcept { return forest_ != nullptr && forest_->fitted(); }
  std::size_t training_points() const noexcept { return n_points_; }
  /// Ensemble size (0 before training) — the audit log's virtual-cost unit.
  std::size_t n_trees() const noexcept { return forest_ ? forest_->n_trees() : 0; }
  /// True when both models answer from the one immutable forest (copies of
  /// a model taken since its last fit), so every prediction agrees.
  bool same_forest(const CollectiveModel& other) const noexcept {
    return trained() && forest_ == other.forest_;
  }

  /// (Re)fits the forest on the collected points. Throws InvalidArgument on
  /// an empty set or on points of a different collective.
  void fit(const std::vector<LabeledPoint>& data, std::uint64_t seed);

  /// Predicted execution time in microseconds.
  double predict_us(const bench::BenchmarkPoint& point) const;

  /// Predicted log(time_us) — the model's native output space.
  double predict_log_us(const bench::BenchmarkPoint& point) const;

  /// Jackknife variance of the per-tree log-time predictions (§IV-A) for
  /// every row of an encoded candidate grid (FeatureSpace::grid), in row
  /// order — the sweep the acquisition policy and the convergence proxy
  /// share (the learner sums it in order, serially, into the cumulative
  /// variance of §IV-C). It runs the forest's grid kernel, which splits each
  /// tree's boxes of grid cells instead of walking a row, on the global
  /// thread pool. A cell's value is a pure function of its row, bitwise
  /// jackknife_variance of walking that row alone, so the vector is the same
  /// for any thread count. Each call records one `model.variance_sweep`
  /// span and one `model.variance_sweep_ms` observation. A grid with no rows
  /// gives an empty vector, even untrained.
  std::vector<double> jackknife_variances(const ml::ProductGrid& grid) const;

  /// The algorithm with the lowest predicted time for the scenario; ties
  /// keep the earlier algorithm in algorithms_for() order.
  coll::Algorithm select(const bench::Scenario& s) const;

  /// select() per scenario, on the global thread pool in chunks of four (a
  /// batch of four or fewer runs on the caller at any thread count). The
  /// rule generator's grid walk and acclaimd's cache misses run on this.
  std::vector<coll::Algorithm> select_batch(const std::vector<bench::Scenario>& scenarios) const;

  /// select() with its work shown: per-candidate mean predictions and tree
  /// votes, runner-up and margin, and the chosen candidate's jackknife
  /// variance, all from select()'s scoring call. Serial and deterministic —
  /// safe to feed the audit log.
  SelectionExplanation explain(const bench::Scenario& s) const;

  /// Serializes the trained model (collective + forest) so a job can reuse
  /// it or inspect it offline. Requires trained().
  util::Json to_json() const;
  static CollectiveModel from_json(const util::Json& doc);

 private:
  struct Scores;
  /// The one selection routine: encodes the candidate algorithms of `s` and
  /// scores them with one jackknife_batch call. The result lives in
  /// per-thread buffers until this thread's next call.
  const Scores& score(const bench::Scenario& s) const;

  coll::Collective collective_ = coll::Collective::Bcast;
  ml::ForestParams params_;
  /// Immutable once published: fit() replaces the pointer, never the forest.
  std::shared_ptr<const ml::RandomForest> forest_;
  std::size_t n_points_ = 0;
};

}  // namespace acclaim::core
