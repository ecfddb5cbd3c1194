#include "core/active_learner.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <utility>

#include "core/feature_space.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace acclaim::core {

namespace {

/// Points a cold run collects at random before its first model fit.
constexpr std::size_t kSeedPoints = 5;
/// The absolute term of the variance-convergence tolerance (the paper's
/// 1e-9; see ActiveLearnerConfig::variance_rel_tol).
constexpr double kVarianceAbsTol = 1e-9;
/// A warm run's convergence window (see WarmStart).
constexpr int kWarmPatience = 2;

}  // namespace

ActiveLearner::ActiveLearner(coll::Collective collective, const FeatureSpace& space,
                             TuningEnvironment& env, AcquisitionPolicy& policy,
                             ActiveLearnerConfig config)
    : collective_(collective), space_(space), env_(env), policy_(policy), config_(config) {
  require(config_.max_points == -1 || config_.max_points >= 1,
          "max_points must be -1 (the whole pool) or at least 1");
  require(config_.refit_every >= 1, "refit_every must be >= 1");
  require(config_.patience >= 1, "patience must be >= 1");
}

void ActiveLearner::set_monitor(std::function<double(const CollectiveModel&)> probe) {
  monitor_ = std::move(probe);
}

void ActiveLearner::set_warm_start(WarmStart warm) {
  require(warm.model.trained(), "warm start requires a trained model");
  require(warm.model.collective() == collective_,
          "warm-start model is for a different collective");
  for (const LabeledPoint& lp : warm.support) {
    require(lp.point.scenario.collective == collective_,
            "warm-start support point is for a different collective");
  }
  warm_ = std::move(warm);
}

TrainingResult ActiveLearner::run() {
  const telemetry::Span span("learner.run");
  const std::vector<bench::BenchmarkPoint> candidates = space_.candidates(collective_);
  std::vector<bench::BenchmarkPoint> pool = candidates;
  // pool[i] is candidates[pool_ids[i]].
  std::vector<std::size_t> pool_ids(candidates.size());
  std::iota(pool_ids.begin(), pool_ids.end(), std::size_t{0});
  // The current model's jackknife variance of every candidate and their
  // sum, from the convergence sweep; empty until that sweep runs and after
  // every refit, so the model is swept once per refit.
  std::vector<double> candidate_var;
  double candidate_var_sum = 0.0;
  const std::size_t cap = config_.max_points < 0
                              ? candidates.size()
                              : std::min<std::size_t>(candidates.size(),
                                                      static_cast<std::size_t>(config_.max_points));

  TrainingResult result;
  result.model = CollectiveModel(collective_, config_.forest);
  if (warm_) {
    // Transfer: start answering (and ranking acquisition candidates) from
    // the donor job's forest instead of the random seed phase.
    result.model = warm_->model;
    result.warm_started = true;
  }
  // Convergence floor: a cold run must collect config_.min_points before the
  // variance criterion may fire; a warm run only needs enough fresh points
  // to have patched the transferred model's disagreement region.
  const std::size_t min_points =
      warm_ ? kWarmMinNewPoints : static_cast<std::size_t>(config_.min_points);
  // Same split for the criterion's window: a warm run's variance is already
  // calm, so it only needs kWarmPatience confirming checks.
  const int patience = warm_ ? kWarmPatience : config_.patience;
  util::Rng rng(config_.seed);
  const double clock_start_s = env_.clock_s();

  // Convergence state: an exponential moving average smooths the cumulative
  // variance; the criterion compares the smoothed value against its value
  // `patience` iterations earlier.
  double ema = -1.0;
  std::vector<double> ema_history;
  int calm_iters = 0;
  std::size_t points_at_last_fit = 0;

  // The learner's scheduler is always topology-aware; the naive ablation
  // lives in fig13 only.
  const CollectionScheduler scheduler;
  const simnet::Topology* topo = env_.topology();
  const simnet::Allocation* alloc = env_.allocation();

  // The warm path refits on the fresh measurements plus the transferred
  // support set, minus any support point a fresh measurement overrides (same
  // scenario and algorithm): the prior keeps covering the regions this job
  // never measures, the measurements win wherever the model disagreed enough
  // with this job's network to get sampled.
  auto fit_points = [&]() {
    std::vector<LabeledPoint> data = result.collected;
    if (warm_) {
      std::set<std::pair<bench::Scenario, coll::Algorithm>> measured;
      for (const LabeledPoint& lp : result.collected) {
        measured.emplace(lp.point.scenario, lp.point.algorithm);
      }
      for (const LabeledPoint& lp : warm_->support) {
        if (!measured.contains({lp.point.scenario, lp.point.algorithm})) {
          data.push_back(lp);
        }
      }
    }
    return data;
  };
  // A warm run refits from the first fresh point (the support set already
  // carries enough rows); a cold run waits for the random seed phase.
  const std::size_t refit_floor = warm_ ? 1u : kSeedPoints;
  static telemetry::Counter& refit_counter = telemetry::metrics().counter("model_refits");
  auto refit = [&](bool force) {
    // Without a fresh point a refit would fit the same data with the same
    // seed, and so the same forest.
    const std::size_t fresh = result.collected.size() - points_at_last_fit;
    const bool due = fresh >= static_cast<std::size_t>(config_.refit_every);
    if (result.collected.size() >= refit_floor && fresh > 0 && (force || due)) {
      // A constant seed keeps consecutive refits highly correlated (most
      // bootstrap draws coincide), so the cumulative-variance signal tracks
      // the *data*, not resampling jitter.
      result.model.fit(fit_points(), config_.seed);
      candidate_var.clear();
      points_at_last_fit = result.collected.size();
      refit_counter.add();
      if (telemetry::tracer().enabled()) {
        telemetry::TraceEvent ev;
        ev.kind = telemetry::EventKind::ModelRefit;
        ev.label = coll::collective_name(collective_);
        ev.fields["points"] = result.collected.size();
        telemetry::tracer().record(std::move(ev));
      }
    }
  };

  while (!pool.empty() && result.collected.size() < cap) {
    ++result.iterations;
    // One round: the policy scores the pool once and hands out picks. With
    // a topology the scheduler places them on disjoint racks until the
    // first misfit, the cap or a full allocation; without one (dataset
    // lookups) a round is one pick, as it is until the first fit (the
    // random seed phase).
    //
    // The model has not changed since the last convergence sweep, so its
    // variances of the pool entries are the ones a scoring sweep would
    // compute: a row's jackknife result does not depend on its sweep block.
    std::vector<double> pool_var;
    if (!candidate_var.empty()) {
      pool_var.reserve(pool.size());
      for (const std::size_t id : pool_ids) {
        pool_var.push_back(candidate_var[id]);
      }
    }
    policy_.begin_round(result.model, pool, std::move(pool_var));
    CollectionBatch batch;
    if (topo != nullptr && alloc != nullptr) {
      const std::size_t room = result.model.trained() ? cap - result.collected.size() : 1;
      batch = scheduler.plan(
          pool, room, [&] { return policy_.draw(rng); }, *topo, *alloc,
          [&](std::size_t i) { return policy_.accept(i, env_, rng); });
      require(!batch.items.empty(), "acquisition pick needs more nodes than the allocation has");
    } else {
      const std::size_t i = policy_.draw(rng);
      batch.items.push_back(ScheduledBenchmark{policy_.accept(i, env_, rng), 0});
      batch.consumed.push_back(i);
    }
    const std::vector<bench::Measurement> measurements = env_.measure_scheduled(batch.items);
    for (std::size_t i = 0; i < batch.items.size(); ++i) {
      result.collected.push_back({batch.items[i].point, measurements[i].mean_us});
      policy_.observe(batch.items[i].point, measurements[i].mean_us);
    }
    // Erase consumed pool entries (descending index order).
    std::sort(batch.consumed.rbegin(), batch.consumed.rend());
    for (std::size_t idx : batch.consumed) {
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(idx));
      pool_ids.erase(pool_ids.begin() + static_cast<std::ptrdiff_t>(idx));
    }

    refit(/*force=*/false);

    IterationRecord rec;
    rec.iteration = result.iterations;
    rec.points_collected = result.collected.size();
    rec.clock_s = env_.clock_s() - clock_start_s;
    rec.batch_size = static_cast<int>(batch.items.size());
    if (result.model.trained()) {
      // The one sweep per refit: the convergence proxy, kept to score the
      // pools of the rounds until the next refit. The sum is a fixed-order
      // serial one, so it does not vary with the thread count.
      if (candidate_var.empty()) {
        candidate_var = result.model.jackknife_variances(candidates);
        candidate_var_sum = std::accumulate(candidate_var.begin(), candidate_var.end(), 0.0);
      }
      rec.cumulative_variance = candidate_var_sum;
      if (monitor_) {
        rec.avg_slowdown = monitor_(result.model);
      }
      // Variance convergence (§IV-C): the change of the smoothed cumulative
      // variance over a `patience`-iteration window must stay below
      // kVarianceAbsTol + rel_tol * reference, for `patience` consecutive checks.
      constexpr double kEmaAlpha = 0.25;
      ema = ema < 0.0 ? rec.cumulative_variance
                      : kEmaAlpha * rec.cumulative_variance + (1.0 - kEmaAlpha) * ema;
      ema_history.push_back(ema);
      if (ema_history.size() > static_cast<std::size_t>(patience)) {
        const double ref =
            ema_history[ema_history.size() - 1 - static_cast<std::size_t>(patience)];
        const double delta = std::abs(ema - ref);
        const double tol = kVarianceAbsTol + config_.variance_rel_tol * std::abs(ref);
        calm_iters = delta < tol ? calm_iters + 1 : 0;
        if (telemetry::tracer().enabled()) {
          telemetry::TraceEvent ev;
          ev.kind = telemetry::EventKind::ConvergenceCheck;
          ev.label = coll::collective_name(collective_);
          ev.fields["iteration"] = rec.iteration;
          ev.fields["delta"] = delta;
          ev.fields["tol"] = tol;
          ev.fields["calm_iters"] = calm_iters;
          telemetry::tracer().record(std::move(ev));
        }
      }
      rec.cumulative_variance_ema = ema;
    }
    result.history.push_back(rec);
    if (telemetry::tracer().enabled()) {
      telemetry::TraceEvent ev;
      ev.kind = telemetry::EventKind::TrainingIteration;
      ev.label = coll::collective_name(collective_);
      ev.fields["iteration"] = rec.iteration;
      ev.fields["points"] = rec.points_collected;
      ev.fields["variance"] = rec.cumulative_variance;
      ev.fields["variance_ema"] = rec.cumulative_variance_ema;
      ev.fields["batch_size"] = rec.batch_size;
      ev.fields["clock_s"] = rec.clock_s;
      ev.fields["converged"] = calm_iters >= patience &&
                               rec.points_collected >= min_points;
      telemetry::tracer().record(std::move(ev));
    }

    if (calm_iters >= patience && result.collected.size() >= min_points) {
      result.converged = true;
      break;
    }
  }

  refit(/*force=*/true);
  result.train_time_s = env_.clock_s() - clock_start_s;
  static telemetry::Counter& runs = telemetry::metrics().counter("learner.runs");
  static telemetry::Counter& iters = telemetry::metrics().counter("learner.iterations");
  static telemetry::Histogram& points_hist =
      telemetry::metrics().histogram("learner.points_per_run", {1.0, 16});
  runs.add();
  iters.add(static_cast<std::uint64_t>(result.iterations));
  points_hist.observe(static_cast<double>(result.collected.size()));
  AC_LOG_INFO() << "active learner (" << coll::collective_name(collective_) << ", "
                << policy_.name() << "): " << result.collected.size() << " points, "
                << result.iterations << " iterations, "
                << (result.converged ? "converged" : "stopped") << " after "
                << result.train_time_s << " s of collection";
  return result;
}

}  // namespace acclaim::core
