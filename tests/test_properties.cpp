// Cross-cutting property tests: schedule determinism, traffic accounting,
// executor agreement, jackknife algebra, rule-table properties, and
// thread-pool stress over randomized inputs.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <tuple>

#include "benchdata/dataset.hpp"
#include "collectives/types.hpp"
#include "core/env.hpp"
#include "core/model.hpp"
#include "core/rulegen.hpp"
#include "core/scheduler.hpp"
#include "minimpi/cost_executor.hpp"
#include "minimpi/data_executor.hpp"
#include "minimpi/schedule.hpp"
#include "ml/forest.hpp"
#include "simnet/allocation.hpp"
#include "simnet/network.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace acclaim;
using coll::CollParams;

CollParams random_params(const coll::AlgorithmInfo& info, util::Rng& rng) {
  CollParams p;
  p.nranks = static_cast<int>(rng.uniform_int(1, 24));
  p.count = static_cast<std::uint64_t>(rng.uniform_int(1, 200));
  p.type_size = 8;
  const bool rooted = info.collective == coll::Collective::Bcast ||
                      info.collective == coll::Collective::Reduce ||
                      info.collective == coll::Collective::Gather ||
                      info.collective == coll::Collective::Scatter;
  p.root = rooted ? static_cast<int>(rng.uniform_int(0, p.nranks - 1)) : 0;
  return p;
}

TEST(ScheduleProperties, BuildingTwiceIsIdentical) {
  util::Rng rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    const auto& infos = coll::all_algorithms();
    const auto& info = infos[rng.index(infos.size())];
    const CollParams p = random_params(info, rng);
    minimpi::RecordingSink a;
    minimpi::RecordingSink b;
    coll::build_schedule(info.alg, p, a);
    coll::build_schedule(info.alg, p, b);
    ASSERT_EQ(a.rounds().size(), b.rounds().size()) << info.name;
    for (std::size_t r = 0; r < a.rounds().size(); ++r) {
      const auto& ta = a.rounds()[r].transfers;
      const auto& tb = b.rounds()[r].transfers;
      ASSERT_EQ(ta.size(), tb.size());
      for (std::size_t t = 0; t < ta.size(); ++t) {
        EXPECT_EQ(ta[t].src_rank, tb[t].src_rank);
        EXPECT_EQ(ta[t].dst_rank, tb[t].dst_rank);
        EXPECT_EQ(ta[t].src_off, tb[t].src_off);
        EXPECT_EQ(ta[t].dst_off, tb[t].dst_off);
        EXPECT_EQ(ta[t].bytes, tb[t].bytes);
        EXPECT_EQ(ta[t].reduce, tb[t].reduce);
      }
    }
  }
}

TEST(ScheduleProperties, KnownTrafficTotals) {
  // Closed-form network-byte totals for the simplest algorithms.
  const std::uint64_t bs = 64 * 8;
  {
    // Ring allgather: (n-1) rounds x n blocks of bs.
    minimpi::RecordingSink sink;
    CollParams p;
    p.nranks = 12;
    p.count = 64;
    coll::build_schedule(coll::Algorithm::AllgatherRing, p, sink);
    EXPECT_EQ(sink.network_bytes(), 11u * 12u * bs);
  }
  {
    // Linear gather: n-1 remote contributions of bs (the root's own block
    // is a local copy).
    minimpi::RecordingSink sink;
    CollParams p;
    p.nranks = 12;
    p.count = 64;
    coll::build_schedule(coll::Algorithm::GatherLinear, p, sink);
    EXPECT_EQ(sink.network_bytes(), 11u * bs);
  }
  {
    // Pairwise alltoall: every ordered pair exchanges one block.
    minimpi::RecordingSink sink;
    CollParams p;
    p.nranks = 8;
    p.count = 64;
    coll::build_schedule(coll::Algorithm::AlltoallPairwise, p, sink);
    EXPECT_EQ(sink.network_bytes(), 8u * 7u * bs);
  }
}

TEST(ScheduleProperties, TeeSinkFeedsBothExecutorsIdentically) {
  // Cost and data executors consume the same rounds in one pass.
  const simnet::Topology topo(testing_support::small_machine());
  const simnet::NetworkModel net(topo, 3);
  const simnet::Allocation alloc({0, 1, 2, 3, 4, 5});
  const minimpi::RankMap rm(alloc, 2);
  CollParams p;
  p.nranks = 12;
  p.count = 16;
  p.type_size = 8;
  const auto sizes = coll::buffer_requirements(coll::Collective::Allreduce, p);
  minimpi::DataExecutor data(p.nranks, sizes.send_bytes, sizes.recv_bytes, sizes.tmp_bytes);
  minimpi::CostExecutor cost(net, rm);
  minimpi::TeeSink tee({&data, &cost});
  for (int r = 0; r < p.nranks; ++r) {
    auto& send = data.buffer(r, minimpi::BufKind::Send);
    for (auto& v : send) {
      v = 1.0;
    }
  }
  coll::build_schedule(coll::Algorithm::AllreduceRecursiveDoubling, p, tee);
  EXPECT_EQ(data.rounds_executed(), cost.rounds_executed());
  EXPECT_GT(cost.elapsed_us(), 0.0);
  // All-ones inputs sum to nranks everywhere.
  for (int r = 0; r < p.nranks; ++r) {
    EXPECT_DOUBLE_EQ(data.buffer(r, minimpi::BufKind::Recv)[0], 12.0);
  }
}

TEST(JackknifeProperties, AffineTransform) {
  util::Rng rng(5);
  std::vector<double> x(40);
  for (auto& v : x) {
    v = rng.normal(3.0, 2.0);
  }
  std::vector<double> y(x.size());
  const double a = -2.5;
  const double b = 7.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    y[i] = a * x[i] + b;
  }
  // Variance scales with a^2; the shift is irrelevant.
  EXPECT_NEAR(ml::jackknife_variance(y), a * a * ml::jackknife_variance(x), 1e-9);
}

TEST(JackknifeProperties, PermutationInvariant) {
  util::Rng rng(6);
  std::vector<double> x(25);
  for (auto& v : x) {
    v = rng.uniform(0, 10);
  }
  std::vector<double> shuffled = x;
  rng.shuffle(shuffled);
  EXPECT_NEAR(ml::jackknife_variance(shuffled), ml::jackknife_variance(x), 1e-12);
}

TEST(RuleProperties, GeneratedTablesResolveEveryQuery) {
  // For models trained on random subsets, generated tables must resolve any
  // in-range and out-of-range scenario without throwing and agree with the
  // model on grid points.
  const bench::Dataset& ds = testing_support::small_dataset();
  const core::FeatureSpace space = testing_support::small_space();
  util::Rng rng(9);
  for (int trial = 0; trial < 4; ++trial) {
    const auto all = ds.points(coll::Collective::Reduce);
    std::vector<core::LabeledPoint> data;
    for (const auto& p : all) {
      if (rng.chance(0.4)) {
        data.push_back({p, ds.at(p).mean_us});
      }
    }
    if (data.size() < 10) {
      continue;
    }
    core::CollectiveModel model(coll::Collective::Reduce);
    model.fit(data, rng.next_u64());
    const core::RuleTable table = core::RuleGenerator().generate(model, space);
    EXPECT_NO_THROW(table.validate());
    // Off-grid queries (non-P2 everything, out-of-range sizes) still resolve.
    EXPECT_NO_THROW(table.lookup({coll::Collective::Reduce, 13, 3, 1}));
    EXPECT_NO_THROW(table.lookup({coll::Collective::Reduce, 1000, 100, 1ull << 40}));
    for (const auto& s : space.scenarios(coll::Collective::Reduce)) {
      EXPECT_EQ(table.lookup(s), model.select(s));
    }
  }
}

TEST(ForestProperties, PredictionWithinTrainingRange) {
  // A regression forest predicts means of leaves, so predictions are
  // bounded by the training target range.
  util::Rng rng(10);
  std::vector<ml::FeatureRow> X;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    X.push_back({rng.uniform(0, 10), rng.uniform(0, 10)});
    y.push_back(rng.uniform(5.0, 9.0));
  }
  ml::RandomForest f;
  ml::ForestParams params;
  params.n_trees = 20;
  f.fit(X, y, params, 3);
  for (int i = 0; i < 100; ++i) {
    const ml::FeatureRow probe{rng.uniform(-5, 15), rng.uniform(-5, 15)};
    const double pred = f.predict(probe);
    EXPECT_GE(pred, 5.0 - 1e-9);
    EXPECT_LE(pred, 9.0 + 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Randomized thread-pool stress: hammer the global pool across random pool
// sizes, range shapes, and grains, checking every parallel result against a
// sequential reference computed with the same counter-indexed Rng streams.

class ThreadStress : public ::testing::Test {
 protected:
  void SetUp() override { original_threads_ = util::global_threads(); }
  void TearDown() override { util::set_global_threads(original_threads_); }

 private:
  int original_threads_ = 1;
};

TEST_F(ThreadStress, RandomizedParallelForMatchesSequentialReference) {
  util::Rng meta(0x57E55ull);
  const int thread_choices[] = {1, 2, 4, 8};
  for (int trial = 0; trial < 25; ++trial) {
    const std::uint64_t seed = meta.next_u64();
    const std::size_t n = static_cast<std::size_t>(meta.uniform_int(1, 400));
    const std::size_t grain = static_cast<std::size_t>(meta.uniform_int(1, 17));
    const int threads = thread_choices[meta.index(4)];

    // Sequential reference: one derived stream per index, pure function of
    // (seed, i) — the same scheme the forest uses for per-tree RNGs.
    std::vector<double> expect(n);
    for (std::size_t i = 0; i < n; ++i) {
      util::Rng r = util::Rng::stream(seed, i);
      expect[i] = r.uniform() + r.uniform(0.0, static_cast<double>(i + 1));
    }

    util::set_global_threads(threads);
    std::vector<double> got(n);
    util::global_pool().parallel_for(
        0, n,
        [&](std::size_t i) {
          util::Rng r = util::Rng::stream(seed, i);
          got[i] = r.uniform() + r.uniform(0.0, static_cast<double>(i + 1));
        },
        grain);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], expect[i])
          << "trial=" << trial << " threads=" << threads << " grain=" << grain << " i=" << i;
    }
  }
}

TEST_F(ThreadStress, RepeatedResizeUnderWork) {
  // Resizing between parallel regions must never lose indices or deadlock.
  util::Rng meta(0xBEEF);
  std::vector<std::atomic<int>> hits(512);
  for (int round = 0; round < 12; ++round) {
    util::set_global_threads(static_cast<int>(meta.uniform_int(1, 8)));
    for (auto& h : hits) {
      h.store(0);
    }
    util::global_pool().parallel_for(0, hits.size(),
                                     [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "round=" << round << " i=" << i;
    }
  }
}

TEST_F(ThreadStress, ScheduledBatchesDeterministicUnderRandomPoolsAndThreads) {
  // Randomized batches through the §IV-D scheduler + LiveEnvironment: the
  // placements and the simulated measurements must match a single-threaded
  // reference run, whatever pool composition or thread count the trial draws.
  util::Rng meta(0x5CED);
  const simnet::MachineConfig machine = testing_support::small_machine();
  const simnet::Topology topo(machine);
  for (int trial = 0; trial < 6; ++trial) {
    const std::uint64_t job_seed = meta.next_u64();
    std::vector<int> ids(static_cast<std::size_t>(machine.total_nodes));
    for (int i = 0; i < machine.total_nodes; ++i) {
      ids[static_cast<std::size_t>(i)] = i;
    }
    const simnet::Allocation alloc(ids);

    std::vector<bench::BenchmarkPoint> pool;
    const auto algorithms = coll::algorithms_for(coll::Collective::Bcast);
    const int pool_size = 3 + static_cast<int>(meta.uniform_int(0, 5));
    for (int i = 0; i < pool_size; ++i) {
      bench::BenchmarkPoint p;
      p.scenario.collective = coll::Collective::Bcast;
      p.scenario.nnodes = 1 << meta.uniform_int(1, 3);
      p.scenario.ppn = 2;
      p.scenario.msg_bytes = 256u << meta.uniform_int(0, 4);
      p.algorithm = algorithms[meta.index(algorithms.size())];
      pool.push_back(p);
    }
    const core::CollectionScheduler scheduler;
    auto run_once = [&]() {
      core::LiveEnvironment env(topo, alloc, job_seed);
      const core::CollectionBatch batch =
          scheduler.plan(pool, pool.size(), testing_support::pull_in_order(), topo, alloc);
      const auto ms = env.measure_scheduled(batch.items);
      return std::make_tuple(batch, ms, env.clock_s());
    };

    util::set_global_threads(1);
    const auto [ref_batch, ref_ms, ref_clock] = run_once();
    ASSERT_FALSE(ref_batch.items.empty());

    const int threads = 2 + static_cast<int>(meta.uniform_int(0, 6));
    util::set_global_threads(threads);
    const auto [batch, ms, clock] = run_once();
    ASSERT_EQ(batch.items.size(), ref_batch.items.size()) << "trial=" << trial;
    for (std::size_t i = 0; i < batch.items.size(); ++i) {
      ASSERT_EQ(batch.items[i].first_node, ref_batch.items[i].first_node);
      ASSERT_EQ(batch.consumed[i], ref_batch.consumed[i]);
      ASSERT_EQ(ms[i].mean_us, ref_ms[i].mean_us)
          << "trial=" << trial << " threads=" << threads << " slot=" << i;
      ASSERT_EQ(ms[i].stddev_us, ref_ms[i].stddev_us);
      ASSERT_EQ(ms[i].collect_cost_s, ref_ms[i].collect_cost_s);
    }
    ASSERT_EQ(clock, ref_clock) << "trial=" << trial << " threads=" << threads;
  }
}

TEST_F(ThreadStress, PrecollectDeterministicAcrossThreads) {
  // The dataset builder fans the simulated runs out on the pool; the saved
  // measurements must be bitwise-equal to a sequential collection.
  const simnet::MachineConfig machine = testing_support::small_machine();
  bench::FeatureGrid grid;
  grid.nodes = {2, 4};
  grid.ppns = {2};
  grid.msgs = {256, 4096};

  util::set_global_threads(1);
  const bench::Dataset ref =
      bench::precollect(machine, grid, {coll::Collective::Bcast}, 11);

  for (int threads : {2, 8}) {
    util::set_global_threads(threads);
    const bench::Dataset ds =
        bench::precollect(machine, grid, {coll::Collective::Bcast}, 11);
    const auto points = ref.points();
    ASSERT_EQ(ds.points().size(), points.size()) << "threads=" << threads;
    for (const bench::BenchmarkPoint& p : points) {
      ASSERT_EQ(ds.at(p).mean_us, ref.at(p).mean_us) << "threads=" << threads;
      ASSERT_EQ(ds.at(p).stddev_us, ref.at(p).stddev_us);
      ASSERT_EQ(ds.at(p).collect_cost_s, ref.at(p).collect_cost_s);
    }
  }
}

TEST_F(ThreadStress, ForestFitDeterministicUnderRandomDataAndThreads) {
  util::Rng meta(0xF0E57);
  for (int trial = 0; trial < 5; ++trial) {
    const std::uint64_t seed = meta.next_u64();
    std::vector<ml::FeatureRow> X;
    std::vector<double> y;
    util::Rng data(seed);
    const int rows = 40 + static_cast<int>(data.uniform_int(0, 80));
    for (int i = 0; i < rows; ++i) {
      X.push_back({data.uniform(0, 8), data.uniform(0, 8), data.uniform(0, 2)});
      y.push_back(data.uniform(0.0, 5.0) + X.back()[0]);
    }
    ml::ForestParams params;
    params.n_trees = 16;

    util::set_global_threads(1);
    ml::RandomForest ref;
    ref.fit(X, y, params, seed);
    const std::string golden = ref.to_json().dump();

    const int threads = 2 + static_cast<int>(meta.uniform_int(0, 6));
    util::set_global_threads(threads);
    ml::RandomForest forest;
    forest.fit(X, y, params, seed);
    ASSERT_EQ(forest.to_json().dump(), golden) << "trial=" << trial << " threads=" << threads;
  }
}

TEST_F(ThreadStress, BatchedForestEvaluationMatchesScalarUnderRandomBatchesAndThreads) {
  // Property: for any forest, batch size, and thread count, the fused SoA
  // batch kernel and the grid kernel agree bitwise with walking the trees
  // row by row with DecisionTree::predict. The forest is fit on a random
  // pool size, the reference trees serially with the same per-tree seeds.
  // Exercises batch sizes straddling the lane width, and the grid kernel's
  // trees and cell reductions on the pool at random thread counts (each
  // cell must be a pure function of its row).
  util::Rng meta(0xF147);
  const int thread_choices[] = {1, 2, 4, 8};
  for (int trial = 0; trial < 10; ++trial) {
    const std::uint64_t seed = meta.next_u64();
    util::Rng data(seed);
    std::vector<ml::FeatureRow> X;
    std::vector<double> y;
    const int n = 30 + static_cast<int>(data.uniform_int(0, 90));
    for (int i = 0; i < n; ++i) {
      X.push_back({data.uniform(0, 8), static_cast<double>(data.uniform_int(0, 3)),
                   data.uniform(-2, 2)});
      y.push_back(X.back()[0] - X.back()[1] + data.normal(0.0, 0.2));
    }
    ml::ForestParams params;
    params.n_trees = 1 + static_cast<int>(data.uniform_int(0, 30));
    util::set_global_threads(thread_choices[meta.index(4)]);
    ml::RandomForest forest;
    forest.fit(X, y, params, seed);
    const std::size_t nt = forest.n_trees();

    const std::size_t n_rows = static_cast<std::size_t>(meta.uniform_int(1, 64));
    std::vector<ml::FeatureRow> rows;
    for (std::size_t r = 0; r < n_rows; ++r) {
      rows.push_back({data.uniform(-10, 10), data.uniform(-10, 10), data.uniform(-10, 10)});
    }

    std::vector<double> var(n_rows), mean(n_rows), scratch;
    forest.jackknife_batch(rows.data(), n_rows, var.data(), mean.data(), scratch);
    std::vector<double> batched(n_rows * nt);
    forest.predict_trees_batch(rows.data(), n_rows, batched.data());
    const std::vector<ml::DecisionTree> trees = testing_support::fit_trees(X, y, params, seed);
    for (std::size_t r = 0; r < n_rows; ++r) {
      const std::vector<double> scalar = testing_support::walk_trees(trees, rows[r]);
      for (std::size_t t = 0; t < nt; ++t) {
        ASSERT_EQ(batched[r * nt + t], scalar[t])
            << "trial=" << trial << " row=" << r << " tree=" << t;
      }
      ASSERT_EQ(var[r], ml::jackknife_variance(scalar)) << "trial=" << trial << " row=" << r;
      double sum = 0.0;
      for (double v : scalar) {
        sum += v;
      }
      ASSERT_EQ(mean[r], sum / static_cast<double>(nt)) << "trial=" << trial << " row=" << r;
    }

    // The grid sweep over a random three-group grid, one feature per group,
    // at a thread count of its own: each cell against walking its row.
    ml::ProductGrid grid;
    for (std::size_t f = 0; f < 3; ++f) {
      grid.members.push_back(static_cast<std::size_t>(data.uniform_int(1, 9)));
      ml::ProductGrid::Feature feature;
      feature.group = f;
      for (std::size_t m = 0; m < grid.members.back(); ++m) {
        feature.values.push_back(f == 1 ? static_cast<double>(data.uniform_int(-1, 4))
                                        : data.uniform(-10, 10));
      }
      grid.features.push_back(std::move(feature));
    }
    const int grid_threads = thread_choices[data.index(4)];
    util::set_global_threads(grid_threads);
    const std::vector<double> grid_var = forest.jackknife_grid(grid);
    ASSERT_EQ(grid_var.size(), grid.n_rows());
    for (std::size_t r = 0; r < grid.n_rows(); ++r) {
      ASSERT_EQ(grid_var[r],
                ml::jackknife_variance(testing_support::walk_trees(trees, grid.row(r))))
          << "trial=" << trial << " threads=" << grid_threads << " cell=" << r;
    }
  }
}

}  // namespace
