// Golden determinism suite: the parallelized training engine must produce
// bitwise-identical models, predictions, jackknife variances, and
// acquisition rankings for any `--threads` value, and identical results
// across two identically-seeded runs. These tests are the contract behind
// DESIGN.md "Threading & determinism" and run under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "benchdata/point.hpp"
#include "collectives/types.hpp"
#include "core/acquisition.hpp"
#include "core/env.hpp"
#include "core/model.hpp"
#include "core/pipeline.hpp"
#include "core/scheduler.hpp"
#include "ml/forest.hpp"
#include "simnet/machine.hpp"
#include "simnet/topology.hpp"
#include "telemetry/audit.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#include <cstdio>
#include <fstream>

namespace {

using namespace acclaim;

/// Restores the global pool size on scope exit so test order never leaks.
class ThreadGuard {
 public:
  ThreadGuard() : original_(util::global_threads()) {}
  ~ThreadGuard() { util::set_global_threads(original_); }

 private:
  int original_;
};

constexpr int kThreadCounts[] = {1, 2, 8};

/// Synthetic regression problem with enough structure that trees actually
/// split: y = f(x) + seeded noise over a 3-feature grid.
void synthetic_data(std::vector<ml::FeatureRow>& X, std::vector<double>& y, std::uint64_t seed) {
  util::Rng rng(seed);
  X.clear();
  y.clear();
  for (int i = 0; i < 200; ++i) {
    const double a = rng.uniform();
    const double b = rng.uniform() * 4.0;
    const double c = static_cast<double>(rng.uniform_int(0, 3));
    X.push_back({a, b, c});
    // c is a categorical feature holding exact small integers.
    y.push_back(std::sin(a * 6.0) + 0.5 * b + (c == 2.0 ? 1.5 : 0.0) + 0.05 * rng.uniform());
  }
}

/// Fits a forest at the given thread count and returns its serialized form.
std::string fit_forest_json(int threads, std::uint64_t seed) {
  util::set_global_threads(threads);
  std::vector<ml::FeatureRow> X;
  std::vector<double> y;
  synthetic_data(X, y, seed);
  ml::ForestParams params;
  params.n_trees = 32;
  ml::RandomForest forest;
  forest.fit(X, y, params, seed);
  return forest.to_json().dump();
}

TEST(GoldenDeterminism, ForestFitBitwiseIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const std::string golden = fit_forest_json(1, 42);
  for (int threads : kThreadCounts) {
    EXPECT_EQ(fit_forest_json(threads, 42), golden) << "threads=" << threads;
  }
}

TEST(GoldenDeterminism, TwoIdenticallySeededRunsIdentical) {
  ThreadGuard guard;
  EXPECT_EQ(fit_forest_json(8, 7), fit_forest_json(8, 7));
  EXPECT_NE(fit_forest_json(8, 7), fit_forest_json(8, 8)) << "seed must matter";
}

TEST(GoldenDeterminism, PredictionsAndJackknifeBitwiseIdentical) {
  ThreadGuard guard;
  std::vector<ml::FeatureRow> X;
  std::vector<double> y;
  synthetic_data(X, y, 99);
  ml::ForestParams params;
  params.n_trees = 40;

  // Reference: fully sequential.
  util::set_global_threads(1);
  ml::RandomForest ref;
  ref.fit(X, y, params, 99);
  std::vector<std::vector<double>> ref_trees(X.size());
  std::vector<double> ref_mean(X.size());
  for (std::size_t i = 0; i < X.size(); ++i) {
    ref_trees[i] = testing_support::tree_predictions(ref, X[i]);
    ref_mean[i] = ref.predict(X[i]);
  }

  for (int threads : kThreadCounts) {
    util::set_global_threads(threads);
    ml::RandomForest forest;
    forest.fit(X, y, params, 99);
    for (std::size_t i = 0; i < X.size(); ++i) {
      const std::vector<double> trees = testing_support::tree_predictions(forest, X[i]);
      ASSERT_EQ(trees.size(), ref_trees[i].size());
      for (std::size_t t = 0; t < trees.size(); ++t) {
        ASSERT_EQ(trees[t], ref_trees[i][t]) << "threads=" << threads << " row=" << i;
      }
      ASSERT_EQ(forest.predict(X[i]), ref_mean[i]) << "threads=" << threads;
      ASSERT_EQ(ml::jackknife_variance(trees), ml::jackknife_variance(ref_trees[i]));
    }
  }
}

/// Labeled points over every algorithm of `c` and a small scenario grid,
/// with a smooth synthetic cost so the model has signal.
std::vector<core::LabeledPoint> synthetic_points(coll::Collective c) {
  std::vector<core::LabeledPoint> data;
  const auto algorithms = coll::algorithms_for(c);
  for (int nodes : {2, 4, 8, 16}) {
    for (std::uint64_t msg : {64ull, 1024ull, 16384ull}) {
      std::size_t ai = 0;
      for (coll::Algorithm alg : algorithms) {
        core::LabeledPoint p;
        p.point.scenario.collective = c;
        p.point.scenario.nnodes = nodes;
        p.point.scenario.ppn = 4;
        p.point.scenario.msg_bytes = msg;
        p.point.algorithm = alg;
        p.time_us = 10.0 + static_cast<double>(msg) / 256.0 +
                    2.0 * nodes * (1.0 + 0.3 * static_cast<double>(ai));
        data.push_back(p);
        ++ai;
      }
    }
  }
  return data;
}

TEST(GoldenDeterminism, CollectiveModelVarianceSweepIdenticalAcrossThreads) {
  ThreadGuard guard;
  const std::vector<core::LabeledPoint> data = synthetic_points(coll::Collective::Bcast);
  std::vector<bench::BenchmarkPoint> pool;
  for (const auto& lp : data) {
    pool.push_back(lp.point);
  }

  util::set_global_threads(1);
  core::CollectiveModel ref(coll::Collective::Bcast);
  ref.fit(data, 1234);
  const std::vector<double> ref_var = ref.jackknife_variances(pool);
  ASSERT_EQ(ref_var.size(), pool.size());

  for (int threads : kThreadCounts) {
    util::set_global_threads(threads);
    core::CollectiveModel model(coll::Collective::Bcast);
    model.fit(data, 1234);
    EXPECT_EQ(model.to_json().dump(), ref.to_json().dump()) << "threads=" << threads;
    const std::vector<double> var = model.jackknife_variances(pool);
    ASSERT_EQ(var.size(), ref_var.size());
    for (std::size_t i = 0; i < var.size(); ++i) {
      ASSERT_EQ(var[i], ref_var[i]) << "threads=" << threads << " candidate=" << i;
    }
  }
}

TEST(GoldenDeterminism, EmptyCandidateListStaysLegalUntrained) {
  ThreadGuard guard;
  util::set_global_threads(4);
  const core::CollectiveModel untrained;
  EXPECT_TRUE(untrained.jackknife_variances({}).empty());
}

/// Exact bit pattern of a double: the byte-compare primitive for values
/// where even 1-ulp drift across thread counts must fail the test.
std::string hex_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  std::ostringstream os;
  os << std::hex << bits;
  return os.str();
}

simnet::MachineConfig golden_machine() {
  simnet::MachineConfig m;
  m.total_nodes = 64;
  m.nodes_per_rack = 4;
  m.racks_per_pair = 2;
  return m;
}

/// A placed batch over the whole allocation: three co-runnable benchmarks of
/// different sizes plus their scheduler inputs.
std::vector<bench::BenchmarkPoint> golden_pool() {
  std::vector<bench::BenchmarkPoint> pool;
  std::size_t ai = 0;
  const auto algorithms = coll::algorithms_for(coll::Collective::Bcast);
  for (int nodes : {8, 4, 2, 4, 8, 2}) {
    bench::BenchmarkPoint p;
    p.scenario.collective = coll::Collective::Bcast;
    p.scenario.nnodes = nodes;
    p.scenario.ppn = 4;
    p.scenario.msg_bytes = 1024u << (ai % 4);
    p.algorithm = algorithms[ai % algorithms.size()];
    pool.push_back(p);
    ++ai;
  }
  return pool;
}

/// Byte-fingerprint of one planned-and-measured batch: every scheduler
/// decision and every simulated measurement.
std::string batch_fingerprint(int threads) {
  util::set_global_threads(threads);
  const simnet::Topology topo(golden_machine());
  std::vector<int> ids(32);
  for (int i = 0; i < 32; ++i) {
    ids[static_cast<std::size_t>(i)] = i;
  }
  const simnet::Allocation alloc(ids);
  core::LiveEnvironment env(topo, alloc, /*job_seed=*/17);

  const std::vector<bench::BenchmarkPoint> pool = golden_pool();
  std::size_t next = 0;
  const core::CollectionScheduler scheduler;
  const core::CollectionBatch batch =
      scheduler.plan(pool, pool.size(), [&] { return next++; }, topo, alloc);
  const std::vector<bench::Measurement> ms = env.measure_scheduled(batch.items);

  std::ostringstream os;
  for (const core::ScheduledBenchmark& item : batch.items) {
    os << item.point.to_string() << "@" << item.first_node << ";";
  }
  os << "|";
  for (const bench::Measurement& m : ms) {
    os << hex_bits(m.mean_us) << "," << hex_bits(m.stddev_us) << "," << m.iterations << ","
       << hex_bits(m.collect_cost_s) << ";";
  }
  os << "clock=" << hex_bits(env.clock_s());
  return os.str();
}

/// Byte-fingerprint of one multi-pick acquisition round on a multi-rack
/// allocation: every pool index the scheduler pulled from the policy's
/// weighted draws, where it placed each pick, and the points the policy
/// accepted (non-P2 swap included).
std::string round_fingerprint(int threads) {
  util::set_global_threads(threads);
  const std::vector<core::LabeledPoint> data = synthetic_points(coll::Collective::Bcast);
  std::vector<bench::BenchmarkPoint> pool;
  for (const auto& lp : data) {
    if (lp.point.scenario.nnodes <= 4) {  // one rack each: the round packs many
      pool.push_back(lp.point);
    }
  }
  core::CollectiveModel model(coll::Collective::Bcast);
  model.fit(data, 77);
  const simnet::Topology topo(golden_machine());
  std::vector<int> ids(32);
  for (int i = 0; i < 32; ++i) {
    ids[static_cast<std::size_t>(i)] = i;
  }
  const simnet::Allocation alloc(ids);
  core::LiveEnvironment env(topo, alloc, /*job_seed=*/17);
  core::AcclaimAcquisition policy;
  util::Rng rng(3);

  std::ostringstream os;
  policy.begin_round(model, pool);
  const core::CollectionBatch batch = core::CollectionScheduler().plan(
      pool, pool.size(),
      [&] {
        const std::size_t i = policy.draw(rng);
        os << i << ",";
        return i;
      },
      topo, alloc, [&](std::size_t i) { return policy.accept(i, env, rng); });
  os << "|";
  for (const core::ScheduledBenchmark& item : batch.items) {
    os << item.point.to_string() << "@" << item.first_node << ";";
  }
  return os.str();
}

TEST(GoldenDeterminism, AcquisitionRoundPicksIdenticalAcrossThreads) {
  ThreadGuard guard;
  const std::string golden = round_fingerprint(1);
  // The round places one pick per rack of the 8-rack allocation.
  EXPECT_EQ(std::count(golden.begin(), golden.end(), '@'), 8);
  for (int threads : kThreadCounts) {
    EXPECT_EQ(round_fingerprint(threads), golden) << "threads=" << threads;
  }
}

TEST(GoldenDeterminism, ScheduledBatchBitwiseIdenticalAcrossThreads) {
  ThreadGuard guard;
  const std::string golden = batch_fingerprint(1);
  // The batch co-schedules several items.
  EXPECT_GT(golden.size(), 100u);
  for (int threads : kThreadCounts) {
    EXPECT_EQ(batch_fingerprint(threads), golden) << "threads=" << threads;
  }
}

/// Byte-fingerprint of a full tune-job run: allocation, per-collective
/// training trajectory, the simulated collection clock, and the generated
/// selection-rule document (which embeds every trained model's decisions).
std::string tune_job_fingerprint(int threads) {
  util::set_global_threads(threads);
  core::ActiveLearnerConfig learner;
  learner.forest.n_trees = 24;
  learner.max_points = 48;
  core::AcclaimPipeline pipeline(golden_machine(), learner);
  core::JobSpec spec;
  spec.collectives = {coll::Collective::Bcast};
  spec.nnodes = 8;
  spec.ppn = 4;
  spec.min_msg = 64;
  spec.max_msg = 16 * 1024;
  spec.job_seed = 9;
  spec.machine_busy_fraction = 0.2;
  const core::PipelineResult r = pipeline.run(spec);

  std::ostringstream os;
  for (int i = 0; i < r.allocation.num_nodes(); ++i) {
    os << r.allocation.node(i) << ",";
  }
  os << "|";
  for (const core::CollectiveTrainingSummary& t : r.training) {
    os << coll::collective_name(t.collective) << ":" << t.points << "," << t.iterations << ","
       << hex_bits(t.train_time_s) << "," << t.converged << "," << t.max_batch << ";";
  }
  os << "total=" << hex_bits(r.total_training_s) << "|" << r.config.dump();
  return os.str();
}

TEST(GoldenDeterminism, FullTuneJobBitwiseIdenticalAcrossThreads) {
  ThreadGuard guard;
  const std::string golden = tune_job_fingerprint(1);
  EXPECT_GT(golden.size(), 500u);
  for (int threads : kThreadCounts) {
    EXPECT_EQ(tune_job_fingerprint(threads), golden) << "threads=" << threads;
  }
}

/// Raw bytes of the audit log a fixed-seed tune-job streams. DecisionRecords
/// carry no wall-clock data and every emission site sits on the serial
/// decision path, so the file must be bitwise-identical for any --threads.
std::string audited_tune_job_log(int threads) {
  util::set_global_threads(threads);
  const std::string path =
      testing::TempDir() + "audit_det_t" + std::to_string(threads) + ".jsonl";
  telemetry::audit().disable();  // resets the sequence counter
  telemetry::audit().open_stream(path);

  core::ActiveLearnerConfig learner;
  learner.forest.n_trees = 24;
  learner.max_points = 48;
  core::AcclaimPipeline pipeline(golden_machine(), learner);
  core::JobSpec spec;
  spec.collectives = {coll::Collective::Bcast};
  spec.nnodes = 8;
  spec.ppn = 4;
  spec.min_msg = 64;
  spec.max_msg = 16 * 1024;
  spec.job_seed = 9;
  spec.machine_busy_fraction = 0.2;
  pipeline.run(spec);

  telemetry::audit().disable();  // flushes and closes the stream
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::remove(path.c_str());
  return bytes.str();
}

TEST(GoldenDeterminism, AuditLogBitwiseIdenticalAcrossThreads) {
  ThreadGuard guard;
  const std::string golden = audited_tune_job_log(1);
  // The run must actually have produced decisions (acquisition rounds plus
  // the rule-generation selections).
  EXPECT_GT(golden.size(), 1000u);
  for (int threads : kThreadCounts) {
    EXPECT_EQ(audited_tune_job_log(threads), golden) << "threads=" << threads;
  }
}

// The batched model paths run on the thread pool and must equal the scalar
// paths bit for bit: the blocked fused jackknife sweep equals sweeping each
// point alone, and select_batch, select and the argmin of the scalar
// predict_log_us agree — for every standard collective (2- and 3-candidate
// blocks) and every batch size from 0 to 17, on both sides of
// select_batch's chunk of four.
TEST(ForestGolden, VarianceSweepAndSelectionMatchScalarPaths) {
  ThreadGuard guard;
  util::set_global_threads(4);
  std::set<std::size_t> block_sizes;
  for (const coll::Collective c : coll::all_collectives()) {
    const std::vector<core::LabeledPoint> data = synthetic_points(c);
    std::vector<bench::BenchmarkPoint> pool;
    for (const auto& lp : data) {
      pool.push_back(lp.point);
    }
    core::CollectiveModel model(c);
    model.fit(data, 4321);
    const std::vector<coll::Algorithm> algorithms = coll::algorithms_for(c);
    block_sizes.insert(algorithms.size());

    const std::vector<double> var = model.jackknife_variances(pool);
    ASSERT_EQ(var.size(), pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      ASSERT_EQ(var[i], model.jackknife_variances({pool[i]}).front())
          << coll::collective_name(c) << " candidate=" << i;
    }

    // Distinct scenarios on and off the training grid, P2 and non-P2.
    std::vector<bench::Scenario> scenarios;
    for (int nodes : {2, 3, 8}) {
      for (std::uint64_t msg : {64ull, 100ull, 1024ull, 5000ull, 16384ull, 40000ull}) {
        scenarios.push_back(bench::Scenario{c, nodes, 4, msg});
      }
    }
    for (std::size_t n = 0; n <= 17; ++n) {
      const std::vector<bench::Scenario> batch(scenarios.begin(), scenarios.begin() + n);
      const std::vector<coll::Algorithm> sel = model.select_batch(batch);
      ASSERT_EQ(sel.size(), n);
      for (std::size_t i = 0; i < n; ++i) {
        std::size_t best = 0;
        for (std::size_t a = 1; a < algorithms.size(); ++a) {
          if (model.predict_log_us({batch[i], algorithms[a]}) <
              model.predict_log_us({batch[i], algorithms[best]})) {
            best = a;
          }
        }
        ASSERT_EQ(sel[i], model.select(batch[i]))
            << coll::collective_name(c) << " n=" << n << " scenario=" << i;
        ASSERT_EQ(sel[i], algorithms[best])
            << coll::collective_name(c) << " n=" << n << " scenario=" << i;
      }
    }
  }
  EXPECT_EQ(block_sizes, (std::set<std::size_t>{2, 3}));
}

}  // namespace
