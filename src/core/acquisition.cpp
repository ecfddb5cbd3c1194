#include "core/acquisition.hpp"

#include <numeric>
#include <utility>

#include "core/feature_space.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/trace.hpp"
#include "util/error.hpp"

namespace acclaim::core {

AcquisitionPolicy::AcquisitionPolicy(VariancePick pick, int nonp2_cadence)
    : pick_(pick), nonp2_cadence_(nonp2_cadence) {}

void AcquisitionPolicy::observe(const bench::BenchmarkPoint&, double) {}

void AcquisitionPolicy::begin_round(const CollectiveModel& model,
                                    const std::vector<bench::BenchmarkPoint>& pool,
                                    std::vector<double> model_variances) {
  pool_ = &pool;
  left_.resize(pool.size());
  std::iota(left_.begin(), left_.end(), std::size_t{0});
  var_.clear();
  sweep_evals_ = 0;
  // The candidate sweep (fixed-size blocks of pool entries through the
  // fused SoA predict+jackknife kernel) runs on the global thread pool; the
  // draws stay sequential over the in-order variance vector, so the picks
  // and the rng stream are independent of the thread count.
  if (const CollectiveModel* m = scorer(model)) {
    if (m == &model && !model_variances.empty()) {
      require(model_variances.size() == pool.size(),
              "handed variances must cover the round's pool");
      var_ = std::move(model_variances);
    } else {
      var_ = m->jackknife_variances(pool);
    }
    sweep_evals_ =
        static_cast<std::int64_t>(pool.size()) * static_cast<std::int64_t>(m->n_trees());
  }
}

std::size_t AcquisitionPolicy::draw(util::Rng& rng) {
  require(!left_.empty(), "acquisition round has no undrawn candidate");
  std::size_t k = 0;  // position in left_
  if (var_.empty()) {
    k = rng.index(left_.size());
  } else if (pick_ == VariancePick::Argmax) {
    double best_var = -1.0;
    for (std::size_t j = 0; j < left_.size(); ++j) {
      if (var_[left_[j]] > best_var) {
        best_var = var_[left_[j]];
        k = j;
      }
    }
  } else {
    // Weighted sampling: probability proportional to jackknife variance, by
    // inverse CDF over the undrawn entries in pool order.
    double total = 0.0;
    for (std::size_t i : left_) {
      total += var_[i] + 1e-12;
    }
    double u = rng.uniform(0.0, total);
    k = left_.size() - 1;
    for (std::size_t j = 0; j < left_.size(); ++j) {
      const double w = var_[left_[j]] + 1e-12;
      if (u < w) {
        k = j;
        break;
      }
      u -= w;
    }
  }
  const std::size_t drawn = left_[k];
  left_.erase(left_.begin() + static_cast<std::ptrdiff_t>(k));
  return drawn;
}

bench::BenchmarkPoint AcquisitionPolicy::accept(std::size_t pool_index, TuningEnvironment& env,
                                                util::Rng& rng) {
  require(pool_ != nullptr && pool_index < pool_->size(),
          "accepted pick is not in the round's pool");
  const std::vector<bench::BenchmarkPoint>& pool = *pool_;
  ++picks_;
  bench::BenchmarkPoint point = pool[pool_index];
  bool swapped = false;
  if (nonp2_cadence_ > 0 && picks_ % nonp2_cadence_ == 0) {
    // Swap the message size for a random non-P2 size whose closest P2 value
    // is the selected one (§IV-B).
    if (const auto m = env.nonp2_msg_near(point.scenario.msg_bytes, rng)) {
      point.scenario.msg_bytes = *m;
      swapped = true;
    }
  }
  // The signal that drove the pick: the chosen point's jackknife variance
  // under the scoring model (0 for uniform draws).
  const double variance = var_.empty() ? 0.0 : var_[pool_index];
  static telemetry::Counter& picks = telemetry::metrics().counter("acquisition.picks");
  static telemetry::Counter& swaps = telemetry::metrics().counter("acquisition.nonp2_swaps");
  picks.add();
  if (swapped) {
    swaps.add();
  }
  if (telemetry::tracer().enabled()) {
    telemetry::TraceEvent ev;
    ev.kind = telemetry::EventKind::PointAcquired;
    ev.label = coll::collective_name(point.scenario.collective);
    ev.fields["nnodes"] = point.scenario.nnodes;
    ev.fields["ppn"] = point.scenario.ppn;
    ev.fields["msg_bytes"] = point.scenario.msg_bytes;
    ev.fields["algorithm"] = coll::algorithm_info(point.algorithm).name;
    ev.fields["variance"] = variance;
    ev.fields["nonp2"] = swapped;
    telemetry::tracer().record(std::move(ev));
  }
  if (telemetry::audit().enabled()) {
    // This site sits on the learner's serial loop (det-audit-order): picks
    // are accepted one by one as the scheduler places them, never inside a
    // parallel_for.
    const telemetry::Span span("audit.decision");
    telemetry::DecisionRecord rec;
    rec.kind = telemetry::DecisionKind::Acquisition;
    rec.source = "policy";
    rec.collective = coll::collective_name(point.scenario.collective);
    rec.nnodes = point.scenario.nnodes;
    rec.ppn = point.scenario.ppn;
    rec.msg_bytes = point.scenario.msg_bytes;
    rec.features = encode_point(point);
    rec.chosen = coll::algorithm_info(point.algorithm).name;
    if (!var_.empty()) {
      rec.variance = variance;
      rec.acq_score = variance;
      // Runner-up: the highest-variance candidate not drawn yet this round.
      if (!left_.empty()) {
        std::size_t second = left_.front();
        for (std::size_t i : left_) {
          if (var_[i] > var_[second]) {
            second = i;
          }
        }
        rec.runner_up = coll::algorithm_info(pool[second].algorithm).name;
        // Relative score gap: how much more informative the pick looked than
        // the next-best candidate (negative under weighted sampling when a
        // lower-variance point won the draw).
        rec.margin = var_[second] > 0.0 ? variance / var_[second] - 1.0 : 0.0;
      }
      rec.tree_evals = sweep_evals_;
      sweep_evals_ = 0;
    }
    rec.pool_size = static_cast<std::int64_t>(pool.size());
    rec.round = static_cast<std::int64_t>(picks_);
    rec.nonp2 = swapped;
    telemetry::audit().record(std::move(rec));
    telemetry::observe_decision_cost(span.elapsed_ns());
  }
  return point;
}

AcquisitionPolicy::Pick AcquisitionPolicy::next(const CollectiveModel& model,
                                                const std::vector<bench::BenchmarkPoint>& pool,
                                                TuningEnvironment& env, util::Rng& rng) {
  begin_round(model, pool);
  const std::size_t i = draw(rng);
  return {i, accept(i, env, rng)};
}

SurrogateAcquisition::SurrogateAcquisition(coll::Collective c, std::uint64_t seed,
                                           SurrogateAcquisitionConfig config)
    : AcquisitionPolicy(VariancePick::Argmax, 0),
      surrogate_(c, config.surrogate),
      config_(config),
      seed_(seed) {
  require(config_.refresh_every >= 1, "surrogate refresh_every must be >= 1");
}

void SurrogateAcquisition::observe(const bench::BenchmarkPoint& point, double time_us) {
  seen_.push_back({point, time_us});
  ++since_refresh_;
}

const CollectiveModel* SurrogateAcquisition::scorer(const CollectiveModel&) {
  if (!seen_.empty() && (!surrogate_.trained() || since_refresh_ >= config_.refresh_every)) {
    surrogate_.fit(seen_, seed_ + static_cast<std::uint64_t>(trainings_));
    ++trainings_;
    since_refresh_ = 0;
  }
  return surrogate_.trained() ? &surrogate_ : nullptr;
}

}  // namespace acclaim::core
