// The two prior-art autotuners the paper compares against.
//
//  * Hunold et al. (CLUSTER'20): one random forest *per algorithm*, trained
//    on a uniform random sample of the feature space.
//  * FACT (ExaMPI'21): active learning driven by a separate surrogate model
//    (SurrogateAcquisition), P2 feature values only, convergence tested on a
//    collected test set covering ~20% of the feature space (§III-C) — the
//    cost ACCLAiM eliminates.
#pragma once

#include <map>
#include <vector>

#include "benchdata/dataset.hpp"
#include "core/acquisition.hpp"
#include "core/active_learner.hpp"
#include "core/env.hpp"
#include "core/feature_space.hpp"
#include "core/model.hpp"

namespace acclaim::core {

/// Hunold-style autotuner: per-algorithm forests over {log nodes, log ppn,
/// log msg}, trained from a random fraction of the available points.
class HunoldAutotuner {
 public:
  explicit HunoldAutotuner(coll::Collective c, ml::ForestParams params = default_forest_params());

  /// Samples `fraction` of the dataset's points for this collective
  /// uniformly at random and fits the per-algorithm models.
  /// Returns the collection cost (s) of the sampled points.
  double fit(const bench::Dataset& data, double fraction, std::uint64_t seed);

  bool trained() const noexcept { return !models_.empty(); }

  /// Predicted time of one algorithm (microseconds).
  double predict_us(const bench::Scenario& s, coll::Algorithm a) const;

  /// Lowest-prediction algorithm. Algorithms that received no training data
  /// at all are skipped (with all of them empty, throws).
  coll::Algorithm select(const bench::Scenario& s) const;

  coll::Collective collective() const noexcept { return collective_; }

 private:
  coll::Collective collective_;
  ml::ForestParams params_;
  std::map<coll::Algorithm, ml::RandomForest> models_;
};

/// One acquisition step of a recorded trace.
struct TraceStep {
  LabeledPoint point;
  double cum_cost_s = 0.0;  ///< collection clock after this point
};

/// The full acquisition ordering a policy would produce, with measured
/// values and cumulative collection costs. Prefixes of a trace reproduce
/// "trained with the first X% of points" sweeps (Figs. 3, 5, 11).
struct AcquisitionTrace {
  coll::Collective collective = coll::Collective::Bcast;
  std::vector<TraceStep> steps;

  /// Points of the first `k` steps.
  std::vector<LabeledPoint> prefix(std::size_t k) const;

  /// Collection cost of the first `k` steps.
  double prefix_cost_s(std::size_t k) const;
};

/// Runs the acquisition loop to `config.max_points` (or pool exhaustion)
/// and records the order: an ActiveLearner with `config`, but with
/// convergence disabled (`patience` is ignored).
AcquisitionTrace trace_acquisition(coll::Collective c, const FeatureSpace& space,
                                   TuningEnvironment& env, AcquisitionPolicy& policy,
                                   ActiveLearnerConfig config);

/// Fits a fresh primary model on a trace prefix.
CollectiveModel train_on_prefix(const AcquisitionTrace& trace, std::size_t k,
                                ml::ForestParams params, std::uint64_t seed);

/// The FACT test-set protocol: the scenarios FACT must additionally
/// benchmark to compute average slowdown during training — `fraction`
/// (default 20%, §III-C) of the feature-space scenarios, chosen at random.
std::vector<bench::Scenario> fact_test_scenarios(const FeatureSpace& space, coll::Collective c,
                                                 double fraction, std::uint64_t seed);

/// Collection cost of benchmarking every algorithm of every test scenario
/// (what Fig. 6 compares against the training-set cost).
double test_set_collection_cost_s(const std::vector<bench::Scenario>& test,
                                  TuningEnvironment& env);

}  // namespace acclaim::core
