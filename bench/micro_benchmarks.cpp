// Google-benchmark microbenchmarks for the performance-critical substrate:
// schedule construction, cost execution, forest fit/predict, jackknife
// variance, rule lookup, and JSON round trips. These guard the costs that
// determine how long the figure harnesses and the production pipeline take.
//
// `--json-out DIR` switches the binary into regression-gate mode instead of
// running google-benchmark: on one thread it times walking the fitted trees
// node by node against the forest's fused SoA kernel and its grid kernel on
// a fig10/fig12-shaped jackknife sweep, checks all three bitwise-equal, and
// writes DIR/BENCH_micro_forest.json for CI to parse.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <limits>
#include <string>

#include "benchdata/dataset.hpp"
#include "collectives/types.hpp"
#include "core/feature_space.hpp"
#include "core/model.hpp"
#include "core/rulegen.hpp"
#include "minimpi/cost_executor.hpp"
#include "minimpi/schedule.hpp"
#include "ml/forest.hpp"
#include "simnet/allocation.hpp"
#include "simnet/machine.hpp"
#include "simnet/network.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace acclaim;

/// Sink that only counts, to benchmark pure schedule construction.
class CountingSink final : public minimpi::RoundSink {
 public:
  void on_round(const minimpi::Round& round) override { transfers_ += round.transfers.size(); }
  std::size_t transfers() const { return transfers_; }

 private:
  std::size_t transfers_ = 0;
};

void BM_ScheduleBuild(benchmark::State& state) {
  const auto alg = static_cast<coll::Algorithm>(state.range(0));
  const int nranks = static_cast<int>(state.range(1));
  coll::CollParams p;
  p.nranks = nranks;
  p.count = 4096;
  p.type_size = 8;
  for (auto _ : state) {
    CountingSink sink;
    coll::build_schedule(alg, p, sink);
    benchmark::DoNotOptimize(sink.transfers());
  }
  state.SetLabel(coll::algorithm_info(alg).name);
}
BENCHMARK(BM_ScheduleBuild)
    ->Args({static_cast<int>(coll::Algorithm::BcastBinomial), 256})
    ->Args({static_cast<int>(coll::Algorithm::AllgatherRing), 256})
    ->Args({static_cast<int>(coll::Algorithm::AllgatherBruck), 256})
    ->Args({static_cast<int>(coll::Algorithm::AllreduceReduceScatterAllgather), 256})
    ->Args({static_cast<int>(coll::Algorithm::AllgatherRing), 1024});

void BM_CostExecution(benchmark::State& state) {
  const int nranks = static_cast<int>(state.range(0));
  const simnet::MachineConfig machine = simnet::bebop_like();
  const simnet::Topology topo(machine);
  const simnet::NetworkModel net(topo, 1);
  const int nodes = std::min(64, nranks);
  std::vector<int> ids(static_cast<std::size_t>(nodes));
  for (int i = 0; i < nodes; ++i) {
    ids[static_cast<std::size_t>(i)] = i;
  }
  const simnet::Allocation alloc(ids);
  const minimpi::RankMap rm(alloc, nranks / nodes);
  coll::CollParams p;
  p.nranks = nranks;
  p.count = 65536;
  p.type_size = 1;
  for (auto _ : state) {
    minimpi::CostExecutor cost(net, rm);
    coll::build_schedule(coll::Algorithm::AllgatherRing, p, cost);
    benchmark::DoNotOptimize(cost.elapsed_us());
  }
}
BENCHMARK(BM_CostExecution)->Arg(64)->Arg(256)->Arg(1024);

struct ForestFixture {
  std::vector<ml::FeatureRow> X;
  std::vector<double> y;
  ForestFixture() {
    util::Rng rng(3);
    for (int i = 0; i < 500; ++i) {
      const double a = rng.uniform(0, 7);
      const double b = rng.uniform(0, 6);
      const double c = rng.uniform(3, 20);
      const double d = rng.uniform(0, 3);
      X.push_back({a, b, c, d});
      y.push_back(a + 0.5 * b + 0.1 * c * c + d + rng.normal(0, 0.3));
    }
  }
};

void BM_ForestFit(benchmark::State& state) {
  static const ForestFixture fx;
  ml::ForestParams params;
  params.n_trees = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ml::RandomForest f;
    f.fit(fx.X, fx.y, params, 7);
    benchmark::DoNotOptimize(f.n_trees());
  }
}
BENCHMARK(BM_ForestFit)->Arg(10)->Arg(50)->Arg(100);

void BM_ForestPredictTrees(benchmark::State& state) {
  static const ForestFixture fx;
  ml::ForestParams params;
  params.n_trees = 50;
  ml::RandomForest f;
  f.fit(fx.X, fx.y, params, 7);
  const ml::FeatureRow probe{3.0, 2.0, 10.0, 1.0};
  std::vector<double> out(f.n_trees());
  for (auto _ : state) {
    f.predict_trees_batch(&probe, 1, out.data());
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_ForestPredictTrees);

void BM_Jackknife(benchmark::State& state) {
  util::Rng rng(5);
  std::vector<double> preds(static_cast<std::size_t>(state.range(0)));
  for (auto& v : preds) {
    v = rng.normal(10.0, 1.0);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::jackknife_variance(preds));
  }
}
BENCHMARK(BM_Jackknife)->Arg(50)->Arg(100);

void BM_JsonRoundTrip(benchmark::State& state) {
  // A realistic selection-config document.
  util::Json doc = util::Json::object();
  doc["format"] = "acclaim-coll-tuning-v1";
  util::Json buckets = util::Json::array();
  for (int n = 2; n <= 64; n *= 2) {
    util::Json bucket = util::Json::object();
    bucket["nnodes"] = n;
    bucket["ppn"] = 16;
    util::Json rules = util::Json::array();
    util::Json r1 = util::Json::object();
    r1["msg_size_le"] = 8192;
    r1["algorithm"] = "binomial";
    rules.push_back(std::move(r1));
    util::Json r2 = util::Json::object();
    r2["algorithm"] = "scatter_ring_allgather";
    rules.push_back(std::move(r2));
    bucket["rules"] = std::move(rules);
    buckets.push_back(std::move(bucket));
  }
  util::Json colls = util::Json::object();
  colls["bcast"] = std::move(buckets);
  doc["collectives"] = std::move(colls);
  const std::string text = doc.dump(2);
  for (auto _ : state) {
    const util::Json parsed = util::Json::parse(text);
    benchmark::DoNotOptimize(parsed.dump().size());
  }
}
BENCHMARK(BM_JsonRoundTrip);

void BM_RuleLookup(benchmark::State& state) {
  core::RuleTable table(coll::Collective::Bcast);
  for (int n = 2; n <= 64; n *= 2) {
    for (int ppn = 1; ppn <= 32; ppn *= 2) {
      table.set_bucket(core::BucketKey{n, ppn},
                       {{8192, coll::Algorithm::BcastBinomial},
                        {core::kRuleMax, coll::Algorithm::BcastScatterRingAllgather}});
    }
  }
  const bench::Scenario s{coll::Collective::Bcast, 16, 8, 4096};
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.lookup(s));
  }
}
BENCHMARK(BM_RuleLookup);

void BM_EncodePoint(benchmark::State& state) {
  const bench::BenchmarkPoint p{{coll::Collective::Allreduce, 32, 16, 65536},
                                coll::Algorithm::AllreduceReduceScatterAllgather};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::encode_point(p));
  }
}
BENCHMARK(BM_EncodePoint);

/// A fig10/fig12-shaped forest workload: the full bebop P2 candidate pool of
/// one collective (every scenario x algorithm the jackknife acquisition
/// scores per round: 6 x 6 x 18 x 2 = 1,296 rows), a bench-forest-sized
/// ensemble trained on smooth synthetic log-times over those same encoded
/// features. The fixture keeps the pool as rows and as its encoded grid
/// (row i of the grid is rows[i]), and the fitted trees (the node-walk
/// reference) beside the forest flattened from them.
struct SweepFixture {
  std::vector<ml::FeatureRow> rows;
  ml::ProductGrid grid;
  std::vector<ml::DecisionTree> trees;
  ml::RandomForest forest;

  SweepFixture() {
    std::vector<std::uint64_t> msgs;
    for (std::uint64_t m = 8; m <= (1u << 20); m *= 2) {
      msgs.push_back(m);
    }
    const core::FeatureSpace space({2, 4, 8, 16, 32, 64}, {1, 2, 4, 8, 16, 32}, msgs);
    util::Rng rng(17);
    std::vector<double> y;
    for (const bench::BenchmarkPoint& p : space.candidates(coll::Collective::Allreduce)) {
      const ml::FeatureRow f = core::encode_point(p);
      // log-time surface: latency + bandwidth terms over the log2 axes, a
      // per-algorithm offset from the one-hot block, mild noise.
      double alg_bias = 0.0;
      for (std::size_t i = 3; i < f.size(); ++i) {
        alg_bias += f[i] * 0.2 * static_cast<double>(i - 2);
      }
      y.push_back(0.4 * f[0] + 0.2 * f[1] + 0.15 * f[2] + alg_bias + rng.normal(0.0, 0.05));
      rows.push_back(f);
    }
    grid = space.grid(coll::Collective::Allreduce);
    // The figure harnesses' bench_forest() size: 50 bootstrap trees. The
    // node-walk reference is the fitted forest's own trees, read back from
    // its document.
    ml::ForestParams params;
    params.n_trees = 50;
    forest.fit(rows, y, params, 7);
    const util::Json doc = forest.to_json();
    for (const util::Json& tree : doc.at("trees").as_array()) {
      trees.push_back(ml::DecisionTree::from_json(tree));
    }
  }

  static const SweepFixture& instance() {
    static const SweepFixture fx;
    return fx;
  }
};

/// jackknife_batch's outputs the slow way: each row walks every fitted tree
/// with DecisionTree::predict, then the same tree-order reductions. Either
/// output may be null.
void walk_trees(const SweepFixture& fx, double* variances, double* means,
                std::vector<double>& preds) {
  const std::size_t nt = fx.trees.size();
  preds.resize(nt);
  for (std::size_t r = 0; r < fx.rows.size(); ++r) {
    for (std::size_t t = 0; t < nt; ++t) {
      preds[t] = fx.trees[t].predict(fx.rows[r]);
    }
    if (variances != nullptr) {
      variances[r] = ml::jackknife_variance(preds.data(), nt);
    }
    if (means != nullptr) {
      double sum = 0.0;
      for (std::size_t t = 0; t < nt; ++t) {
        sum += preds[t];
      }
      means[r] = sum / static_cast<double>(nt);
    }
  }
}

/// One full jackknife sweep over the candidate pool, walking the node-struct
/// trees row by row: the reference the fused and grid kernels are timed and
/// checked against.
void BM_JackknifeSweepPointer(benchmark::State& state) {
  const SweepFixture& fx = SweepFixture::instance();
  std::vector<double> var(fx.rows.size());
  std::vector<double> preds;
  for (auto _ : state) {
    walk_trees(fx, var.data(), nullptr, preds);
    benchmark::DoNotOptimize(var.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.rows.size()));
}
BENCHMARK(BM_JackknifeSweepPointer);

/// The same sweep through the fused SoA batch kernel.
void BM_JackknifeSweepFused(benchmark::State& state) {
  const SweepFixture& fx = SweepFixture::instance();
  std::vector<double> var(fx.rows.size());
  std::vector<double> scratch;
  for (auto _ : state) {
    fx.forest.jackknife_batch(fx.rows.data(), fx.rows.size(), var.data(), nullptr, scratch);
    benchmark::DoNotOptimize(var.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.rows.size()));
}
BENCHMARK(BM_JackknifeSweepFused);

/// The same sweep through the grid kernel (CollectiveModel::
/// jackknife_variances' path: no row is walked), on Arg() pool threads.
void BM_JackknifeSweepGrid(benchmark::State& state) {
  const SweepFixture& fx = SweepFixture::instance();
  util::set_global_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fx.forest.jackknife_grid(fx.grid));
  }
  util::set_global_threads(0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.rows.size()));
}
BENCHMARK(BM_JackknifeSweepGrid)->Arg(1)->Arg(4);

/// Batched per-tree predictions alone (no jackknife reduction), SoA arena.
void BM_FlatPredictTreesBatch(benchmark::State& state) {
  const SweepFixture& fx = SweepFixture::instance();
  std::vector<double> out(fx.rows.size() * fx.forest.n_trees());
  for (auto _ : state) {
    fx.forest.predict_trees_batch(fx.rows.data(), fx.rows.size(), out.data());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.rows.size()));
}
BENCHMARK(BM_FlatPredictTreesBatch);

/// Regression-gate mode (`--json-out DIR`): single-threaded tree walk vs
/// fused SoA kernel vs grid kernel on the SweepFixture workload,
/// bitwise-equality checks, and a BENCH_micro_forest.json artifact in the
/// house format (figure/rows/host_wall_s) so CI fails a change that makes
/// either kernel lose ground.
int run_forest_gate(const std::string& out_dir) {
  const auto wall_start = std::chrono::steady_clock::now();
  util::set_global_threads(1);
  const SweepFixture& fx = SweepFixture::instance();
  const std::size_t n = fx.rows.size();

  std::vector<double> var_ptr(n), mean_ptr(n), var_flat(n), mean_flat(n);
  std::vector<double> scratch;
  constexpr int kReps = 7;
  auto time_path = [&](const auto& sweep) {
    double best_s = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < kReps; ++rep) {  // first rep doubles as warmup
      const auto t0 = std::chrono::steady_clock::now();
      sweep();
      const double s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      if (rep > 0) {
        best_s = std::min(best_s, s);
      }
    }
    return best_s;
  };
  const double ptr_s =
      time_path([&] { walk_trees(fx, var_ptr.data(), mean_ptr.data(), scratch); });
  const double flat_s = time_path([&] {
    fx.forest.jackknife_batch(fx.rows.data(), n, var_flat.data(), mean_flat.data(), scratch);
  });
  std::vector<double> var_grid;
  const double grid_s = time_path([&] { var_grid = fx.forest.jackknife_grid(fx.grid); });

  const bool bitwise_equal =
      std::memcmp(var_ptr.data(), var_flat.data(), n * sizeof(double)) == 0 &&
      std::memcmp(mean_ptr.data(), mean_flat.data(), n * sizeof(double)) == 0;
  const bool grid_bitwise_equal =
      var_grid.size() == n &&
      std::memcmp(var_ptr.data(), var_grid.data(), n * sizeof(double)) == 0;
  const double speedup = ptr_s / flat_s;
  const double grid_speedup = flat_s / grid_s;

  std::cout << "forest gate: " << n << " rows x " << fx.forest.n_trees() << " trees\n"
            << "  pointer   " << ptr_s * 1e3 << " ms  ("
            << static_cast<double>(n) / ptr_s << " rows/s)\n"
            << "  flat+fuse " << flat_s * 1e3 << " ms  ("
            << static_cast<double>(n) / flat_s << " rows/s)\n"
            << "  speedup   " << speedup << "x, bitwise_equal="
            << (bitwise_equal ? "true" : "false") << "\n"
            << "  grid      " << grid_s * 1e3 << " ms  ("
            << static_cast<double>(n) / grid_s << " rows/s)\n"
            << "  speedup   " << grid_speedup << "x over flat+fuse, bitwise_equal="
            << (grid_bitwise_equal ? "true" : "false") << "\n";

  util::Json doc = util::Json::object();
  doc["figure"] = "micro_forest";
  util::Json rows = util::Json::array();
  auto make_row = [&](const char* path, double seconds) {
    util::Json row = util::Json::object();
    row["path"] = path;
    row["seconds"] = seconds;
    row["rows_per_s"] = static_cast<double>(n) / seconds;
    return row;
  };
  rows.push_back(make_row("pointer", ptr_s));
  util::Json flat_row = make_row("flat_fused", flat_s);
  flat_row["speedup"] = speedup;
  flat_row["bitwise_equal"] = bitwise_equal;
  rows.push_back(std::move(flat_row));
  util::Json grid_row = make_row("grid", grid_s);
  grid_row["speedup"] = grid_speedup;
  grid_row["bitwise_equal"] = grid_bitwise_equal;
  rows.push_back(std::move(grid_row));
  doc["rows"] = std::move(rows);
  doc["host_wall_s"] =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start).count();
  std::filesystem::create_directories(out_dir);
  doc.dump_file(out_dir + "/BENCH_micro_forest.json");

  if (!bitwise_equal || !grid_bitwise_equal) {
    std::cerr << "forest gate: kernel results diverge from walking the trees\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Consume `--json-out DIR` before google-benchmark sees the arguments.
  std::string json_out;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--json-out") == 0) {
      json_out = argv[i + 1];
      for (int j = i; j + 2 < argc; ++j) {
        argv[j] = argv[j + 2];
      }
      argc -= 2;
      break;
    }
  }
  if (!json_out.empty()) {
    return run_forest_gate(json_out);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
