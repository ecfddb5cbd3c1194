#include "core/active_learner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <utility>

#include "core/feature_space.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace acclaim::core {

ActiveLearner::ActiveLearner(coll::Collective collective, const FeatureSpace& space,
                             TuningEnvironment& env, AcquisitionPolicy& policy,
                             ActiveLearnerConfig config)
    : collective_(collective), space_(space), env_(env), policy_(policy), config_(config) {
  require(config_.seed_points >= 1, "need at least one seed point");
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
  require(warm.min_new_points >= 1, "warm start needs min_new_points >= 1");
  require(warm.patience >= 1, "warm start needs patience >= 1");
  for (const LabeledPoint& lp : warm.support) {
    require(lp.point.scenario.collective == collective_,
            "warm-start support point is for a different collective");
  }
  warm_ = std::move(warm);
}

TrainingResult ActiveLearner::run() {
  telemetry::ScopedTimer timer("learner.run");
  if (config_.threads > 0) {
    util::set_global_threads(config_.threads);
  }
  const std::vector<bench::BenchmarkPoint> candidates = space_.candidates(collective_);
  std::vector<bench::BenchmarkPoint> pool = candidates;
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
      static_cast<std::size_t>(warm_ ? warm_->min_new_points : config_.min_points);
  // Same split for the criterion's window: a warm run's variance is already
  // calm, so it only needs WarmStart::patience confirming checks.
  const int patience = warm_ ? warm_->patience : config_.patience;
  util::Rng rng(config_.seed);
  const double clock_start_s = env_.clock_s();

  // Convergence state: an exponential moving average smooths the cumulative
  // variance; the criterion compares the smoothed value against its value
  // `patience` iterations earlier.
  double ema = -1.0;
  std::vector<double> ema_history;
  int calm_iters = 0;
  std::size_t points_at_last_fit = 0;
  int nonp2_counter = 0;

  const CollectionScheduler scheduler(CollectionSchedulerConfig{config_.topology_aware});
  const bool can_parallel = config_.parallel_collection && env_.topology() != nullptr &&
                            env_.allocation() != nullptr;

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
  const std::size_t refit_floor =
      warm_ ? 1u : static_cast<std::size_t>(config_.seed_points);
  static telemetry::Counter& refit_counter = telemetry::metrics().counter("model_refits");
  auto refit = [&](bool force) {
    const bool due = result.collected.size() >= points_at_last_fit +
                                                    static_cast<std::size_t>(config_.refit_every);
    if (result.collected.size() >= refit_floor && (force || due)) {
      // A constant seed keeps consecutive refits highly correlated (most
      // bootstrap draws coincide), so the cumulative-variance signal tracks
      // the *data*, not resampling jitter.
      result.model.fit(fit_points(), config_.seed);
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
    int batch_size = 1;
    bool collected_this_iter = false;

    if (can_parallel && result.model.trained()) {
      const std::vector<std::size_t> ranked = policy_.rank(result.model, pool);
      if (!ranked.empty()) {
        CollectionBatch batch =
            scheduler.plan(pool, ranked, *env_.topology(), *env_.allocation());
        if (!batch.items.empty()) {
          // Apply the non-P2 cadence across scheduled items (§IV-B).
          for (auto& item : batch.items) {
            ++nonp2_counter;
            if (config_.parallel_nonp2_cadence > 0 &&
                nonp2_counter % config_.parallel_nonp2_cadence == 0) {
              if (const auto m = env_.nonp2_msg_near(item.point.scenario.msg_bytes, rng)) {
                item.point.scenario.msg_bytes = *m;
              }
            }
          }
          const auto measurements = env_.measure_scheduled(batch.items);
          for (std::size_t i = 0; i < batch.items.size(); ++i) {
            result.collected.push_back({batch.items[i].point, measurements[i].mean_us});
            policy_.observe(batch.items[i].point, measurements[i].mean_us);
            // The batch path bypasses policy_.next(), so it must emit its
            // own point_acquired events to keep the trace's acquisition
            // count equal to the points actually collected.
            if (telemetry::tracer().enabled()) {
              const bench::BenchmarkPoint& point = batch.items[i].point;
              telemetry::TraceEvent ev;
              ev.kind = telemetry::EventKind::PointAcquired;
              ev.label = coll::collective_name(collective_);
              ev.fields["nnodes"] = point.scenario.nnodes;
              ev.fields["ppn"] = point.scenario.ppn;
              ev.fields["msg_bytes"] = point.scenario.msg_bytes;
              ev.fields["algorithm"] = coll::algorithm_info(point.algorithm).name;
              ev.fields["batched"] = true;
              telemetry::tracer().record(std::move(ev));
            }
          }
          if (telemetry::audit().enabled()) {
            // One record per batch round (the batch path bypasses
            // policy_.next(), which covers the sequential path). Emitted on
            // the learner's serial loop — det-audit-order.
            const auto start = std::chrono::steady_clock::now();
            const bench::BenchmarkPoint& top = batch.items.front().point;
            telemetry::DecisionRecord rec;
            rec.kind = telemetry::DecisionKind::Acquisition;
            rec.source = "policy";
            rec.collective = coll::collective_name(collective_);
            rec.nnodes = top.scenario.nnodes;
            rec.ppn = top.scenario.ppn;
            rec.msg_bytes = top.scenario.msg_bytes;
            rec.features = encode_point(top);
            rec.chosen = coll::algorithm_info(top.algorithm).name;
            if (batch.items.size() > 1) {
              rec.runner_up = coll::algorithm_info(batch.items[1].point.algorithm).name;
            }
            // One extra forest query prices the batch's top pick; a full
            // pool sweep here would double the acquisition cost.
            rec.variance = result.model.jackknife_variance(top);
            rec.acq_score = rec.variance;
            rec.pool_size = static_cast<std::int64_t>(pool.size());
            rec.round = static_cast<std::int64_t>(result.iterations);
            rec.batch_size = static_cast<std::int64_t>(batch.items.size());
            rec.tree_evals = static_cast<std::int64_t>(result.model.n_trees());
            telemetry::audit().record(std::move(rec));
            telemetry::observe_decision_cost(
                std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() -
                                                         start)
                    .count());
          }
          // Erase consumed pool entries (descending index order).
          std::vector<std::size_t> consumed = batch.consumed;
          std::sort(consumed.rbegin(), consumed.rend());
          for (std::size_t idx : consumed) {
            pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(idx));
          }
          batch_size = static_cast<int>(batch.items.size());
          collected_this_iter = true;
        }
      }
    }

    if (!collected_this_iter) {
      // Sequential path (also the seed phase and the rank-less fallback).
      const AcquisitionPolicy::Pick pick = policy_.next(result.model, pool, env_, rng);
      require(pick.pool_index < pool.size(), "acquisition returned bad pool index");
      const bench::Measurement m = env_.measure(pick.point);
      result.collected.push_back({pick.point, m.mean_us});
      policy_.observe(pick.point, m.mean_us);
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(pick.pool_index));
    }

    refit(/*force=*/false);

    IterationRecord rec;
    rec.iteration = result.iterations;
    rec.points_collected = result.collected.size();
    rec.clock_s = env_.clock_s() - clock_start_s;
    rec.batch_size = batch_size;
    if (result.model.trained()) {
      rec.cumulative_variance = result.model.cumulative_variance(candidates);
      if (monitor_) {
        rec.avg_slowdown = monitor_(result.model);
      }
      // Variance convergence (§IV-C): the change of the smoothed cumulative
      // variance over a `patience`-iteration window must stay below
      // abs_tol + rel_tol * reference, for `patience` consecutive checks.
      constexpr double kEmaAlpha = 0.25;
      ema = ema < 0.0 ? rec.cumulative_variance
                      : kEmaAlpha * rec.cumulative_variance + (1.0 - kEmaAlpha) * ema;
      ema_history.push_back(ema);
      if (ema_history.size() > static_cast<std::size_t>(patience)) {
        const double ref =
            ema_history[ema_history.size() - 1 - static_cast<std::size_t>(patience)];
        const double delta = std::abs(ema - ref);
        const double tol = config_.variance_abs_tol + config_.variance_rel_tol * std::abs(ref);
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
