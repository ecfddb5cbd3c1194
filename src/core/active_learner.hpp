// The active-learning training loop (Fig. 2(b)).
//
// Each iteration is one acquisition round: the policy scores the pool once
// and draws picks, the topology-aware CollectionScheduler places them on
// disjoint racks of the job's allocation (§IV-D) until the first misfit or
// the point cap, and the environment measures the batch in parallel. An
// environment without topology (dataset lookups) takes one pick per round,
// as does the random seed phase. Then the primary model is retrained and
// convergence is tested on the cumulative jackknife variance — no test set
// is ever collected (§IV-C).
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "core/acquisition.hpp"
#include "core/env.hpp"
#include "core/feature_space.hpp"
#include "core/model.hpp"
#include "core/scheduler.hpp"

namespace acclaim::core {

struct ActiveLearnerConfig {
  ml::ForestParams forest = default_forest_params();
  /// Hard cap on collected points, at least 1; -1 = entire candidate pool.
  int max_points = -1;
  /// Refit the primary model only after this many new points (1 = every
  /// iteration; larger values speed up long acquisition traces).
  int refit_every = 1;
  /// Variance-convergence criterion (§IV-C): an EMA of the cumulative
  /// variance must move less than 1e-9 + rel_tol * reference over a
  /// `patience`-iteration window, for `patience` consecutive checks. The
  /// paper uses an absolute 1e-9 on its variance scale; the relative term
  /// makes the criterion scale-free for our log-time variance (see
  /// EXPERIMENTS.md for the calibration).
  double variance_rel_tol = 0.015;
  int patience = 5;
  /// Convergence cannot fire before this many points are collected (guards
  /// against spuriously calm variance in the cold-start region).
  int min_points = 60;
  std::uint64_t seed = 1;
};

/// Warm-start transfer input (fleet replay, ROADMAP "fleet-scale trace
/// replay with warm-start transfer"): a trained model of the same collective
/// from a previously tuned job, plus the labeled points that trained it.
/// The learner starts from `model` instead of the random seed phase, keeps
/// `support` in every refit so the transferred knowledge survives fits on
/// the few freshly measured points, and lets a fresh measurement *override*
/// a support point at the same (scenario, algorithm) — active learning
/// patches the disagreement region instead of retraining from zero. A warm
/// run converges on its own floor (kWarmMinNewPoints fresh points) and a
/// window of two checks instead of `min_points` and `patience`: it only has
/// to show that fresh measurements did *not* perturb the transferred model,
/// which an already-calm variance shows within a couple of checks.
struct WarmStart {
  CollectiveModel model;
  std::vector<LabeledPoint> support;
};

/// Convergence floor on a warm run's freshly measured points.
inline constexpr std::size_t kWarmMinNewPoints = 16;

struct IterationRecord {
  int iteration = 0;
  std::size_t points_collected = 0;
  double clock_s = 0.0;                 ///< env collection clock after the iteration
  double cumulative_variance = 0.0;     ///< over all P2 candidates (§IV-C proxy)
  double cumulative_variance_ema = 0.0; ///< smoothed value the criterion tests
  /// Average slowdown at this iteration, if a monitor probe was installed
  /// (simulation-only instrumentation; production runs have no oracle).
  std::optional<double> avg_slowdown;
  int batch_size = 1;                   ///< benchmarks run this iteration
};

struct TrainingResult {
  CollectiveModel model;
  std::vector<LabeledPoint> collected;
  std::vector<IterationRecord> history;
  double train_time_s = 0.0;  ///< env clock consumed by this run
  int iterations = 0;
  bool converged = false;
  bool warm_started = false;  ///< run was seeded from a WarmStart
};

class ActiveLearner {
 public:
  /// References must outlive run().
  ActiveLearner(coll::Collective collective, const FeatureSpace& space, TuningEnvironment& env,
                AcquisitionPolicy& policy, ActiveLearnerConfig config = {});

  /// Optional oracle probe recorded into the history (e.g. average slowdown
  /// against a precollected dataset) — never influences training.
  void set_monitor(std::function<double(const CollectiveModel&)> probe);

  /// Seeds the run from a previously trained model (see WarmStart). Throws
  /// InvalidArgument if the model is untrained or for another collective.
  void set_warm_start(WarmStart warm);

  TrainingResult run();

 private:
  coll::Collective collective_;
  const FeatureSpace& space_;
  TuningEnvironment& env_;
  AcquisitionPolicy& policy_;
  ActiveLearnerConfig config_;
  std::function<double(const CollectiveModel&)> monitor_;
  std::optional<WarmStart> warm_;
};

}  // namespace acclaim::core
