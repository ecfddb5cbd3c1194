// Tests for the core autotuner pieces: feature encoding, environments, the
// collective model, acquisition policies, evaluator, and heuristic.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>

#include "core/acquisition.hpp"
#include "core/env.hpp"
#include "core/evaluator.hpp"
#include "core/feature_space.hpp"
#include "core/heuristic.hpp"
#include "core/model.hpp"
#include "telemetry/metrics.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace {

using namespace acclaim;
using bench::BenchmarkPoint;
using bench::Scenario;
using coll::Algorithm;
using coll::Collective;

TEST(FeatureEncoding, Log2AndOneHotAlgorithm) {
  const BenchmarkPoint p{{Collective::Bcast, 8, 4, 1024}, Algorithm::BcastScatterRingAllgather};
  const ml::FeatureRow row = core::encode_point(p);
  ASSERT_EQ(row.size(), core::num_features(Collective::Bcast));
  EXPECT_DOUBLE_EQ(row[0], 3.0);
  EXPECT_DOUBLE_EQ(row[1], 2.0);
  EXPECT_DOUBLE_EQ(row[2], 10.0);
  // One-hot over bcast's three algorithms; this is the third.
  EXPECT_DOUBLE_EQ(row[3], 0.0);
  EXPECT_DOUBLE_EQ(row[4], 0.0);
  EXPECT_DOUBLE_EQ(row[5], 1.0);
  EXPECT_EQ(core::num_features(Collective::Reduce), 5u);
}

TEST(FeatureEncoding, RejectsMismatchedAlgorithm) {
  const BenchmarkPoint bad{{Collective::Bcast, 8, 4, 1024}, Algorithm::AllgatherRing};
  EXPECT_THROW(core::encode_point(bad), InvalidArgument);
}

TEST(FeatureSpace, CandidatesAndNeighbors) {
  const core::FeatureSpace space({2, 4, 8}, {1, 2}, {64, 128, 256});
  EXPECT_EQ(space.candidates(Collective::Reduce).size(), 3u * 2u * 3u * 2u);
  EXPECT_EQ(space.scenarios(Collective::Reduce).size(), 3u * 2u * 3u);
  EXPECT_EQ(space.msg_neighbors(128), (std::pair<std::uint64_t, std::uint64_t>{64, 256}));
  EXPECT_EQ(space.msg_neighbors(64).first, 0u);
  EXPECT_EQ(space.msg_neighbors(256).second, 0u);
  EXPECT_EQ(space.msg_neighbors(100), (std::pair<std::uint64_t, std::uint64_t>{64, 128}));
}

TEST(FeatureSpace, GridRowsAreTheEncodedCandidatesByteForByte) {
  // Every collective, on non-P2 axes, a single-value axis and an axis at
  // the grid's 64-member limit (msgs 1 B to 2^63 B).
  std::vector<std::uint64_t> msgs;
  for (int k = 0; k < 64; ++k) {
    msgs.push_back(std::uint64_t{1} << k);
  }
  for (const core::FeatureSpace& space :
       {core::FeatureSpace({2, 3, 8}, {1, 6}, {64, 100, 4096}),
        core::FeatureSpace({4}, {32}, msgs)}) {
    for (const Collective c : coll::all_collectives()) {
      const std::vector<BenchmarkPoint> candidates = space.candidates(c);
      const ml::ProductGrid grid = space.grid(c);
      ASSERT_EQ(grid.n_rows(), candidates.size()) << coll::collective_name(c);
      for (std::size_t i = 0; i < candidates.size(); ++i) {
        const ml::FeatureRow row = grid.row(i);
        const ml::FeatureRow encoded = core::encode_point(candidates[i]);
        ASSERT_EQ(row.size(), encoded.size());
        ASSERT_EQ(std::memcmp(row.data(), encoded.data(), row.size() * sizeof(double)), 0)
            << coll::collective_name(c) << " candidate=" << i;
      }
    }
  }
  // A 65-value axis does not fit a grid group.
  msgs.push_back(3);
  EXPECT_THROW(core::FeatureSpace({4}, {32}, msgs).grid(Collective::Bcast), InvalidArgument);
}

TEST(DatasetEnvironment, ChargesRecordedCost) {
  const bench::Dataset& ds = testing_support::small_dataset();
  core::DatasetEnvironment env(ds);
  const BenchmarkPoint p = ds.points(Collective::Bcast).front();
  EXPECT_DOUBLE_EQ(env.clock_s(), 0.0);
  const bench::Measurement m = env.measure(p);
  EXPECT_DOUBLE_EQ(env.clock_s(), m.collect_cost_s);
  env.measure(p);
  EXPECT_DOUBLE_EQ(env.clock_s(), 2 * m.collect_cost_s);
  env.reset_clock();
  EXPECT_DOUBLE_EQ(env.clock_s(), 0.0);
}

TEST(DatasetEnvironment, NonP2NeighborComesFromDataset) {
  const bench::Dataset& ds = testing_support::small_dataset();
  core::DatasetEnvironment env(ds);
  util::Rng rng(3);
  const auto m = env.nonp2_msg_near(1024, rng);
  ASSERT_TRUE(m.has_value());
  EXPECT_FALSE(util::is_power_of_two(*m));
  EXPECT_GT(*m, 1024u * 3 / 4);
  EXPECT_LT(*m, 1024u * 3 / 2);
  // The returned size must actually be measurable.
  const Scenario s{Collective::Bcast, 4, 2, *m};
  EXPECT_TRUE(ds.contains(BenchmarkPoint{s, Algorithm::BcastBinomial}));
}

TEST(LiveEnvironment, MeasuresAndChargesClock) {
  const simnet::Topology topo(testing_support::small_machine());
  const simnet::Allocation alloc({0, 1, 2, 3, 4, 5, 6, 7});
  core::LiveEnvironment env(topo, alloc, 42);
  const BenchmarkPoint p{{Collective::Allreduce, 4, 2, 4096},
                         Algorithm::AllreduceRecursiveDoubling};
  const bench::Measurement m = env.measure(p);
  EXPECT_GT(m.mean_us, 0.0);
  EXPECT_DOUBLE_EQ(env.clock_s(), m.collect_cost_s);
  util::Rng rng(1);
  const auto nonp2 = env.nonp2_msg_near(4096, rng);
  ASSERT_TRUE(nonp2.has_value());
  EXPECT_FALSE(util::is_power_of_two(*nonp2));
}

TEST(LiveEnvironment, ScheduledBatchChargesMakespanNotSum) {
  const simnet::Topology topo(testing_support::small_machine());
  const simnet::Allocation alloc({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  core::LiveEnvironment env(topo, alloc, 42);
  const BenchmarkPoint p{{Collective::Bcast, 4, 2, 4096}, Algorithm::BcastBinomial};
  // Two rack-disjoint benchmarks (racks of 4 nodes): nodes 0-3 and 4-7.
  const std::vector<core::ScheduledBenchmark> batch = {{p, 0}, {p, 4}};
  const auto ms = env.measure_scheduled(batch);
  ASSERT_EQ(ms.size(), 2u);
  const double makespan = std::max(ms[0].collect_cost_s, ms[1].collect_cost_s);
  EXPECT_NEAR(env.clock_s(), makespan, 1e-9);
  EXPECT_LT(env.clock_s(), ms[0].collect_cost_s + ms[1].collect_cost_s);
}

TEST(LiveEnvironment, SharedRackBatchesInterfere) {
  const simnet::Topology topo(testing_support::small_machine());
  const simnet::Allocation alloc({0, 1, 2, 3, 4, 5, 6, 7});
  core::LiveEnvironment env(topo, alloc, 42);
  const BenchmarkPoint p{{Collective::Allgather, 2, 2, 1 << 14}, Algorithm::AllgatherRing};
  // Alone on nodes 0-1.
  const auto solo = env.measure_scheduled({{p, 0}});
  // Co-scheduled with a neighbour in the SAME rack (nodes 2-3 share rack 0
  // on the 4-node-per-rack test machine).
  const auto shared = env.measure_scheduled({{p, 0}, {p, 2}});
  EXPECT_GT(shared[0].mean_us, 1.05 * solo[0].mean_us);
}

TEST(CollectiveModel, LearnsDatasetAndSelectsWell) {
  const bench::Dataset& ds = testing_support::small_dataset();
  std::vector<core::LabeledPoint> data;
  for (const BenchmarkPoint& p : ds.points(Collective::Allreduce)) {
    if (util::is_power_of_two(p.scenario.msg_bytes)) {
      data.push_back({p, ds.at(p).mean_us});
    }
  }
  core::CollectiveModel model(Collective::Allreduce);
  EXPECT_FALSE(model.trained());
  model.fit(data, 3);
  ASSERT_TRUE(model.trained());
  EXPECT_EQ(model.training_points(), data.size());
  // Trained on everything, selections should be near-optimal.
  const core::Evaluator ev(ds);
  const auto test = testing_support::small_space().scenarios(Collective::Allreduce);
  EXPECT_LT(ev.average_slowdown(test, model), 1.05);
}

TEST(CollectiveModel, PredictionsArePositiveTimes) {
  const bench::Dataset& ds = testing_support::small_dataset();
  std::vector<core::LabeledPoint> data;
  for (const BenchmarkPoint& p : ds.points(Collective::Reduce)) {
    data.push_back({p, ds.at(p).mean_us});
  }
  core::CollectiveModel model(Collective::Reduce);
  model.fit(data, 5);
  for (const BenchmarkPoint& p : ds.points(Collective::Reduce)) {
    EXPECT_GT(model.predict_us(p), 0.0);
    EXPECT_NEAR(std::log(model.predict_us(p)), model.predict_log_us(p), 1e-9);
  }
}

TEST(CollectiveModel, RejectsWrongCollectiveAndEmptyFit) {
  core::CollectiveModel model(Collective::Bcast);
  EXPECT_THROW(model.fit({}, 1), InvalidArgument);
  const BenchmarkPoint wrong{{Collective::Reduce, 4, 2, 64}, Algorithm::ReduceBinomial};
  EXPECT_THROW(model.fit({{wrong, 10.0}}, 1), InvalidArgument);
  EXPECT_THROW(model.predict_us(wrong), InvalidArgument);
  EXPECT_THROW(model.select(Scenario{Collective::Reduce, 4, 2, 64}), InvalidArgument);
}

TEST(CollectiveModel, JackknifeVarianceLowerNearData) {
  const bench::Dataset& ds = testing_support::small_dataset();
  // Train only on msgs <= 1 KiB; variance should be higher at 64 KiB.
  std::vector<core::LabeledPoint> data;
  for (const BenchmarkPoint& p : ds.points(Collective::Bcast)) {
    if (p.scenario.msg_bytes <= 1024 && util::is_power_of_two(p.scenario.msg_bytes)) {
      data.push_back({p, ds.at(p).mean_us});
    }
  }
  core::CollectiveModel model(Collective::Bcast);
  model.fit(data, 6);
  const BenchmarkPoint seen{{Collective::Bcast, 4, 2, 256}, Algorithm::BcastBinomial};
  const BenchmarkPoint unseen{{Collective::Bcast, 4, 2, 64 * 1024},
                              Algorithm::BcastBinomial};
  const std::vector<double> var = testing_support::row_variances(model, {seen, unseen});
  EXPECT_LE(var[0], var[1]);
  EXPECT_GT(var[0] + var[1], 0.0);
}

// ---------------------------------------------------------------- policies

class PolicyTest : public testing::Test {
 protected:
  PolicyTest() : env_(testing_support::small_dataset()), rng_(17) {
    pool_ = testing_support::small_space().candidates(Collective::Bcast);
    grid_ = testing_support::small_space().grid(Collective::Bcast);
    ids_ = testing_support::all_ids(pool_.size());
    // A partially trained model for variance queries.
    std::vector<core::LabeledPoint> data;
    for (std::size_t i = 0; i < pool_.size(); i += 7) {
      data.push_back({pool_[i], testing_support::small_dataset().at(pool_[i]).mean_us});
    }
    model_ = core::CollectiveModel(Collective::Bcast);
    model_.fit(data, 1);
  }
  core::DatasetEnvironment env_;
  util::Rng rng_;
  std::vector<BenchmarkPoint> pool_;  ///< every candidate, the grid's rows
  ml::ProductGrid grid_;
  std::vector<std::size_t> ids_;  ///< a pool of every candidate
  core::CollectiveModel model_;
};

TEST_F(PolicyTest, RandomPicksValidIndices) {
  core::RandomAcquisition policy;
  std::set<std::size_t> seen;
  for (int i = 0; i < 50; ++i) {
    const auto pick = policy.next(model_, grid_, pool_, ids_, env_, rng_);
    ASSERT_LT(pick.pool_index, pool_.size());
    EXPECT_EQ(pick.point, pool_[pick.pool_index]);
    seen.insert(pick.pool_index);
  }
  EXPECT_GT(seen.size(), 20u);
}

TEST_F(PolicyTest, AcclaimArgmaxPicksHighestVariance) {
  // The paper's literal rule, kept as the ablation mode.
  core::AcclaimAcquisition policy(
      core::AcclaimAcquisitionConfig{0, core::VariancePick::Argmax});
  const auto pick = policy.next(model_, grid_, pool_, ids_, env_, rng_);
  const std::vector<double> var = model_.jackknife_variances(grid_);
  const double picked_var = var[pick.pool_index];
  for (const double v : var) {
    EXPECT_GE(picked_var, v - 1e-12);
  }
  EXPECT_EQ(pick.point, pool_[pick.pool_index]);
}

TEST_F(PolicyTest, AcclaimWeightedSamplingFavorsHighVariance) {
  // The default mode: picks are random but variance-proportional, so over
  // many draws the mean variance of picks exceeds the pool mean.
  core::AcclaimAcquisition policy(core::AcclaimAcquisitionConfig{0});
  const std::vector<double> var = model_.jackknife_variances(grid_);
  double pool_mean = 0.0;
  for (const double v : var) {
    pool_mean += v;
  }
  pool_mean /= static_cast<double>(pool_.size());
  double picked_mean = 0.0;
  constexpr int kDraws = 200;
  for (int i = 0; i < kDraws; ++i) {
    const auto pick = policy.next(model_, grid_, pool_, ids_, env_, rng_);
    picked_mean += var[pick.pool_index];
  }
  picked_mean /= kDraws;
  // Variance-weighted expectation is E[V^2]/E[V] = (1 + CV^2) * E[V] > E[V].
  EXPECT_GT(picked_mean, 1.15 * pool_mean);
}

TEST_F(PolicyTest, AcclaimEveryFifthPickIsNonP2) {
  core::AcclaimAcquisition policy(core::AcclaimAcquisitionConfig{5});
  int nonp2 = 0;
  for (int i = 1; i <= 20; ++i) {
    const auto pick = policy.next(model_, grid_, pool_, ids_, env_, rng_);
    const bool is_nonp2 = !util::is_power_of_two(pick.point.scenario.msg_bytes);
    if (i % 5 == 0) {
      // The 5th/10th/... picks must be non-P2 variants of the anchor.
      EXPECT_TRUE(is_nonp2) << "pick " << i;
      EXPECT_TRUE(util::is_power_of_two(pool_[pick.pool_index].scenario.msg_bytes));
      ++nonp2;
    } else {
      EXPECT_FALSE(is_nonp2) << "pick " << i;
    }
  }
  EXPECT_EQ(nonp2, 4);  // exactly the 80-20 split
}

TEST_F(PolicyTest, RoundDrawsEveryEntryOnceFromOneSweep) {
  // A round scores the pool once (one jackknife sweep), then draws without
  // replacement until no candidate is left.
  const telemetry::Histogram& sweeps =
      telemetry::metrics().histogram("model.variance_sweep_ms", {0.01, 32});
  for (const core::CollectiveModel& model : {model_, core::CollectiveModel(Collective::Bcast)}) {
    core::AcclaimAcquisition policy;
    const std::uint64_t before = sweeps.count();
    policy.begin_round(model, grid_, pool_, ids_);
    std::set<std::size_t> drawn;
    for (std::size_t k = 0; k < pool_.size(); ++k) {
      drawn.insert(policy.draw(rng_));
    }
    EXPECT_EQ(drawn.size(), pool_.size());
    EXPECT_LT(*drawn.rbegin(), pool_.size());
    EXPECT_THROW(policy.draw(rng_), InvalidArgument);
    // An untrained model draws uniformly, without a sweep.
    EXPECT_EQ(sweeps.count() - before, model.trained() ? 1u : 0u);
  }
}

TEST_F(PolicyTest, RoundHandedTheModelsVariancesDrawsWhatASweepingRoundDraws) {
  // The learner hands a round the variances its convergence sweep computed
  // under the same model: the round then sweeps nothing and draws the same
  // picks from the same rng as a round that sweeps the grid itself.
  const telemetry::Histogram& sweeps =
      telemetry::metrics().histogram("model.variance_sweep_ms", {0.01, 32});
  // The pool is part of the candidates; the handed sweep covers them all.
  const std::vector<std::size_t> pool(ids_.begin() + 7, ids_.end());
  const std::vector<double> handed = model_.jackknife_variances(grid_);
  for (const core::VariancePick pick :
       {core::VariancePick::WeightedSampling, core::VariancePick::Argmax}) {
    core::AcclaimAcquisition sweeping(core::AcclaimAcquisitionConfig{0, pick});
    core::AcclaimAcquisition reusing(core::AcclaimAcquisitionConfig{0, pick});
    util::Rng rng_a(23);
    util::Rng rng_b(23);
    sweeping.begin_round(model_, grid_, pool_, pool);
    const std::uint64_t before = sweeps.count();
    reusing.begin_round(model_, grid_, pool_, pool, handed);
    EXPECT_EQ(sweeps.count(), before);
    for (std::size_t k = 0; k < pool.size(); ++k) {
      ASSERT_EQ(sweeping.draw(rng_a), reusing.draw(rng_b)) << "draw " << k;
    }
    EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());
  }
  // A policy that scores with another model sweeps with it regardless.
  core::RandomAcquisition random;
  random.begin_round(model_, grid_, pool_, pool, handed);
  core::SurrogateAcquisition fact(Collective::Bcast, 5);
  fact.observe(pool_[0], testing_support::small_dataset().at(pool_[0]).mean_us);
  fact.observe(pool_[1], testing_support::small_dataset().at(pool_[1]).mean_us);
  const std::uint64_t before = sweeps.count();
  fact.begin_round(model_, grid_, pool_, pool, handed);
  EXPECT_EQ(sweeps.count() - before, 1u);
  EXPECT_EQ(fact.surrogate_trainings(), 1);
}

TEST_F(PolicyTest, FactRoundBetweenSurrogateTrainingsReusesTheSurrogatesSweep) {
  // FACT sweeps the grid with its surrogate once per training: a round
  // before the next training sweeps nothing, and draws from the same rng
  // what a round that sweeps the same surrogate draws.
  const telemetry::Histogram& sweeps =
      telemetry::metrics().histogram("model.variance_sweep_ms", {0.01, 32});
  const bench::Dataset& ds = testing_support::small_dataset();
  core::SurrogateAcquisitionConfig config;
  config.refresh_every = 3;
  core::SurrogateAcquisition fact(Collective::Bcast, 5, config);
  core::SurrogateAcquisition sweeping(Collective::Bcast, 5, config);
  for (std::size_t i = 0; i < 2; ++i) {
    fact.observe(pool_[i], ds.at(pool_[i]).mean_us);
    sweeping.observe(pool_[i], ds.at(pool_[i]).mean_us);
  }
  const std::uint64_t before = sweeps.count();
  fact.begin_round(model_, grid_, pool_, ids_);
  EXPECT_EQ(fact.surrogate_trainings(), 1);
  EXPECT_EQ(sweeps.count() - before, 1u);

  // One more observation: the surrogate is not due for retraining.
  fact.observe(pool_[2], ds.at(pool_[2]).mean_us);
  const std::vector<std::size_t> pool(ids_.begin() + 3, ids_.end());
  fact.begin_round(model_, grid_, pool_, pool);
  EXPECT_EQ(fact.surrogate_trainings(), 1);
  EXPECT_EQ(sweeps.count() - before, 1u);
  // The same surrogate (same two points, same seed), trained and swept now.
  sweeping.begin_round(model_, grid_, pool_, pool);
  EXPECT_EQ(sweeping.surrogate_trainings(), 1);
  EXPECT_EQ(sweeps.count() - before, 2u);
  util::Rng rng_a(29);
  util::Rng rng_b(29);
  for (std::size_t k = 0; k < pool.size(); ++k) {
    ASSERT_EQ(fact.draw(rng_a), sweeping.draw(rng_b)) << "draw " << k;
  }
  EXPECT_EQ(rng_a.next_u64(), rng_b.next_u64());

  // Over many rounds, one sweep per surrogate training.
  const std::uint64_t start = sweeps.count();
  const int trained = fact.surrogate_trainings();
  for (std::size_t i = 3; i < 20; ++i) {
    fact.observe(pool_[i], ds.at(pool_[i]).mean_us);
    fact.begin_round(model_, grid_, pool_, ids_);
  }
  EXPECT_GT(fact.surrogate_trainings(), trained);
  EXPECT_EQ(sweeps.count() - start,
            static_cast<std::uint64_t>(fact.surrogate_trainings() - trained));
}

TEST_F(PolicyTest, SurrogateLearnsFromObservations) {
  core::SurrogateAcquisition policy(Collective::Bcast, 5);
  // Before any observation: random behaviour, no trainings.
  const auto first = policy.next(model_, grid_, pool_, ids_, env_, rng_);
  EXPECT_LT(first.pool_index, pool_.size());
  EXPECT_EQ(policy.surrogate_trainings(), 0);
  for (int i = 0; i < 10; ++i) {
    const auto& ds = testing_support::small_dataset();
    policy.observe(pool_[static_cast<std::size_t>(i)],
                   ds.at(pool_[static_cast<std::size_t>(i)]).mean_us);
    policy.next(model_, grid_, pool_, ids_, env_, rng_);
  }
  // FACT's structural cost: the surrogate retrains every iteration.
  EXPECT_GE(policy.surrogate_trainings(), 9);
}

// -------------------------------------------------------------- evaluation

TEST(Evaluator, SlowdownAndOptimalRate) {
  const bench::Dataset& ds = testing_support::small_dataset();
  const core::Evaluator ev(ds);
  const auto test = testing_support::small_space().scenarios(Collective::Bcast);
  // The oracle has slowdown exactly 1 and optimal rate 1.
  const auto oracle = [&](const Scenario& s) { return ds.best_algorithm(s); };
  EXPECT_DOUBLE_EQ(ev.average_slowdown(test, oracle), 1.0);
  EXPECT_DOUBLE_EQ(ev.optimal_rate(test, oracle), 1.0);
  // A deliberately bad selector (always the worst algorithm) is worse.
  const auto pessimal = [&](const Scenario& s) {
    coll::Algorithm worst = coll::algorithms_for(s.collective).front();
    double worst_us = 0.0;
    for (coll::Algorithm a : coll::algorithms_for(s.collective)) {
      if (ds.time_us(s, a) > worst_us) {
        worst_us = ds.time_us(s, a);
        worst = a;
      }
    }
    return worst;
  };
  EXPECT_GT(ev.average_slowdown(test, pessimal), 1.1);
  EXPECT_THROW(ev.average_slowdown({}, oracle), InvalidArgument);
}

TEST(Heuristic, FollowsMpichCutoffs) {
  using core::mpich_default_selection;
  EXPECT_EQ(mpich_default_selection({Collective::Bcast, 16, 2, 64}),
            Algorithm::BcastBinomial);
  EXPECT_EQ(mpich_default_selection({Collective::Bcast, 16, 2, 65536}),
            Algorithm::BcastScatterRecursiveDoublingAllgather);
  EXPECT_EQ(mpich_default_selection({Collective::Bcast, 16, 2, 1 << 20}),
            Algorithm::BcastScatterRingAllgather);
  // Non-P2 communicator avoids the recursive-doubling variant.
  EXPECT_EQ(mpich_default_selection({Collective::Bcast, 12, 1, 65536}),
            Algorithm::BcastScatterRingAllgather);
  EXPECT_EQ(mpich_default_selection({Collective::Allreduce, 8, 4, 512}),
            Algorithm::AllreduceRecursiveDoubling);
  EXPECT_EQ(mpich_default_selection({Collective::Allreduce, 8, 4, 1 << 16}),
            Algorithm::AllreduceReduceScatterAllgather);
  EXPECT_EQ(mpich_default_selection({Collective::Reduce, 8, 4, 512}),
            Algorithm::ReduceBinomial);
  EXPECT_EQ(mpich_default_selection({Collective::Reduce, 8, 4, 1 << 16}),
            Algorithm::ReduceScatterGather);
  EXPECT_EQ(mpich_default_selection({Collective::Allgather, 8, 4, 64}),
            Algorithm::AllgatherRecursiveDoubling);
  EXPECT_EQ(mpich_default_selection({Collective::Allgather, 12, 1, 64}),
            Algorithm::AllgatherBruck);
  EXPECT_EQ(mpich_default_selection({Collective::Allgather, 8, 4, 1 << 16}),
            Algorithm::AllgatherRing);
}

TEST(Heuristic, LeavesPerformanceOnTheTable) {
  // The motivating gap (§II-B1): static defaults are measurably worse than
  // the oracle on our dataset too.
  const bench::Dataset& ds = testing_support::small_dataset();
  const core::Evaluator ev(ds);
  double worst = 0.0;
  for (Collective c : coll::paper_collectives()) {
    const auto test = testing_support::small_space().scenarios(c);
    worst = std::max(worst, ev.average_slowdown(test, core::mpich_default_selection));
  }
  // The gap is modest on the tiny test machine (the bench harnesses measure
  // it at figure scale, where it exceeds 2x for bcast); it must still exist.
  EXPECT_GT(worst, 1.04);
}

}  // namespace
