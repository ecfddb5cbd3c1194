#include "core/baselines.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace acclaim::core {

HunoldAutotuner::HunoldAutotuner(coll::Collective c, ml::ForestParams params)
    : collective_(c), params_(params) {}

namespace {
ml::FeatureRow encode_scenario(const bench::Scenario& s) {
  return {std::log2(static_cast<double>(s.nnodes)), std::log2(static_cast<double>(s.ppn)),
          std::log2(static_cast<double>(s.msg_bytes))};
}
}  // namespace

double HunoldAutotuner::fit(const bench::Dataset& data, double fraction, std::uint64_t seed) {
  require(fraction > 0.0 && fraction <= 1.0, "fraction must be in (0, 1]");
  const std::vector<bench::BenchmarkPoint> all = data.points(collective_);
  require(!all.empty(), "dataset has no points for this collective");
  util::Rng rng(seed);
  const auto k = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(fraction * static_cast<double>(all.size()))));
  const auto pick = rng.sample_without_replacement(all.size(), k);

  std::map<coll::Algorithm, std::pair<std::vector<ml::FeatureRow>, std::vector<double>>> rows;
  double cost_s = 0.0;
  for (std::size_t i : pick) {
    const bench::BenchmarkPoint& p = all[i];
    const bench::Measurement& m = data.at(p);
    rows[p.algorithm].first.push_back(encode_scenario(p.scenario));
    rows[p.algorithm].second.push_back(std::log(m.mean_us));
    cost_s += m.collect_cost_s;
  }
  models_.clear();
  for (auto& [alg, xy] : rows) {
    ml::RandomForest forest;
    forest.fit(xy.first, xy.second, params_, seed ^ static_cast<std::uint64_t>(alg));
    models_.emplace(alg, std::move(forest));
  }
  require(!models_.empty(), "sampled fraction produced no training data");
  return cost_s;
}

double HunoldAutotuner::predict_us(const bench::Scenario& s, coll::Algorithm a) const {
  const auto it = models_.find(a);
  if (it == models_.end()) {
    throw NotFoundError("Hunold autotuner has no model for algorithm " +
                        std::string(coll::algorithm_info(a).name));
  }
  return std::exp(it->second.predict(encode_scenario(s)));
}

coll::Algorithm HunoldAutotuner::select(const bench::Scenario& s) const {
  require(trained(), "HunoldAutotuner::select called before fit");
  coll::Algorithm best = models_.begin()->first;
  double best_us = std::numeric_limits<double>::infinity();
  for (const auto& [alg, forest] : models_) {
    const double t = std::exp(forest.predict(encode_scenario(s)));
    if (t < best_us) {
      best_us = t;
      best = alg;
    }
  }
  return best;
}

std::vector<LabeledPoint> AcquisitionTrace::prefix(std::size_t k) const {
  require(k >= 1 && k <= steps.size(), "trace prefix length out of range");
  std::vector<LabeledPoint> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    out.push_back(steps[i].point);
  }
  return out;
}

double AcquisitionTrace::prefix_cost_s(std::size_t k) const {
  require(k <= steps.size(), "trace prefix length out of range");
  return k == 0 ? 0.0 : steps[k - 1].cum_cost_s;
}

AcquisitionTrace trace_acquisition(coll::Collective c, const FeatureSpace& space,
                                   TuningEnvironment& env, AcquisitionPolicy& policy,
                                   ActiveLearnerConfig config) {
  config.patience = std::numeric_limits<int>::max();  // disable convergence: trace everything
  const double clock_before = env.clock_s();
  ActiveLearner learner(c, space, env, policy, config);
  const TrainingResult result = learner.run();

  AcquisitionTrace trace;
  trace.collective = c;
  trace.steps.reserve(result.collected.size());
  // Costs are reconstructed per point from the history: without a topology
  // (every caller passes a DatasetEnvironment) each round adds one point.
  double cum = 0.0;
  std::size_t hist = 0;
  for (std::size_t i = 0; i < result.collected.size(); ++i) {
    if (hist < result.history.size()) {
      cum = result.history[hist].clock_s;
      ++hist;
    } else {
      cum = env.clock_s() - clock_before;
    }
    trace.steps.push_back({result.collected[i], cum});
  }
  return trace;
}

CollectiveModel train_on_prefix(const AcquisitionTrace& trace, std::size_t k,
                                ml::ForestParams params, std::uint64_t seed) {
  CollectiveModel model(trace.collective, params);
  model.fit(trace.prefix(k), seed);
  return model;
}

std::vector<bench::Scenario> fact_test_scenarios(const FeatureSpace& space, coll::Collective c,
                                                 double fraction, std::uint64_t seed) {
  require(fraction > 0.0 && fraction <= 1.0, "test fraction must be in (0, 1]");
  const std::vector<bench::Scenario> all = space.scenarios(c);
  util::Rng rng(seed);
  const auto k = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(fraction * static_cast<double>(all.size()))));
  const auto pick = rng.sample_without_replacement(all.size(), k);
  std::vector<bench::Scenario> out;
  out.reserve(k);
  for (std::size_t i : pick) {
    out.push_back(all[i]);
  }
  return out;
}

double test_set_collection_cost_s(const std::vector<bench::Scenario>& test,
                                  TuningEnvironment& env) {
  const double before = env.clock_s();
  for (const bench::Scenario& s : test) {
    for (coll::Algorithm a : coll::algorithms_for(s.collective)) {
      env.measure(bench::BenchmarkPoint{s, a});
    }
  }
  return env.clock_s() - before;
}

}  // namespace acclaim::core
