// loadgen_serve — acclaimd serving-path load generator.
//
// Replays millions of algorithm-selection queries against a ServeCore
// populated with one trained model per collective, mixing two request
// distributions:
//   - a P2 feature-grid sweep (the finite scenario set rule tables cover),
//     which exercises the hot cache-hit path, and
//   - trace-drawn message sizes (traces::generate_trace, ~16% non-P2),
//     which keep producing fresh cache keys and exercise the miss path
//     through the batched forest kernel.
// Requests alternate between single-query select() and batched
// select_batch() so both telemetry histograms (serve.query_us,
// serve.batch_us) fill, then p50/p95/p99 are read back from the log2
// buckets and written to BENCH_serve.json via --json-out.
//
// The run ends with the differential check the serving design promises:
// every distinct scenario seen (up to a cap) is re-asked through the
// ServeCore — cache hits and recomputed misses alike — and compared against
// CollectiveModel::select on the published model. Any mismatch fails the
// binary (exit 1).
//
// Flags (besides BenchEnv's run flags and --json-out):
//   --queries N        total queries to replay, >= 1 (default 1,200,000)
//   --batch B          scenarios per batch request, >= 1 (default 64)
//   --trace-frac F     fraction of queries drawn from traces (default 0.5)
//   --cache-capacity N decision-cache entries, >= 1 (default 65536)
//   --seed K           RNG seed (default 42)
#include <cmath>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "common.hpp"
#include "core/model.hpp"
#include "serve/serve_core.hpp"
#include "telemetry/metrics.hpp"
#include "traces/traces.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace acclaim;

namespace {

/// Synthetic training data: a deterministic analytic cost with per-algorithm
/// coefficients, enough structure that different scenarios select different
/// algorithms. The loadgen measures serving throughput, not model quality,
/// so no simulation runs are needed.
core::CollectiveModel loadgen_model(coll::Collective c) {
  std::vector<core::LabeledPoint> data;
  int alg_index = 0;
  for (coll::Algorithm a : coll::algorithms_for(c)) {
    ++alg_index;
    for (int nodes : {2, 4, 8, 16, 32, 64}) {
      for (int ppn : {2, 8, 32}) {
        for (std::uint64_t msg : {64ull, 1024ull, 16384ull, 262144ull}) {
          const double ranks = static_cast<double>(nodes) * ppn;
          const double alpha = 4.0 + 1.3 * alg_index;
          const double beta = 0.004 / alg_index;
          const double t = alpha * std::log2(ranks) + beta * static_cast<double>(msg) +
                           0.1 * alg_index * std::log2(static_cast<double>(msg));
          data.push_back({bench::BenchmarkPoint{bench::Scenario{c, nodes, ppn, msg}, a}, t});
        }
      }
    }
  }
  ml::ForestParams params = core::default_forest_params();
  params.n_trees = 16;
  core::CollectiveModel model(c, params);
  model.fit(data, 7);
  return model;
}

using ScenarioKey = std::tuple<int, int, int, std::uint64_t>;

ScenarioKey key_of(const bench::Scenario& s) {
  return {static_cast<int>(s.collective), s.nnodes, s.ppn, s.msg_bytes};
}

}  // namespace

int main(int argc, char** argv) {
  benchharness::BenchEnv env(argc, argv, "serve",
                            {"queries", "batch", "trace-frac", "cache-capacity", "seed"});
  const std::uint64_t total_queries = env.get_count("queries", 1'200'000);
  const std::size_t batch = env.get_count("batch", 64);
  const double trace_frac = env.get_double("trace-frac", 0.5);
  const std::size_t cache_capacity = env.get_count("cache-capacity", 1 << 16);
  const auto seed = static_cast<std::uint64_t>(env.get_int("seed", 42));

  benchharness::banner("loadgen_serve",
                       "acclaimd serving path sustains millions of queries; cache hits and "
                       "misses both match direct model selection bit for bit");

  serve::ServeConfig cfg;
  cfg.cache_capacity = cache_capacity;
  serve::ServeCore core(cfg);
  std::map<coll::Collective, core::CollectiveModel> models;
  const std::vector<coll::Collective>& collectives = coll::all_collectives();
  for (coll::Collective c : collectives) {
    core::CollectiveModel model = loadgen_model(c);
    models.emplace(c, model);  // cheap: copies share the immutable forest
    core.publish(serve::ModelKey{c, 0, "default"}, std::move(model));
  }
  std::cout << "published " << models.size() << " models (wildcard scale)\n";

  // Trace-drawn message pool, one slice per LLNL-like app.
  util::Rng rng(seed);
  std::vector<traces::CollectiveCall> trace_pool;
  for (const traces::AppTraceSpec& spec : traces::llnl_like_apps()) {
    const auto calls = traces::generate_trace(spec, 64, 4096, rng);
    trace_pool.insert(trace_pool.end(), calls.begin(), calls.end());
  }

  auto draw_scenario = [&]() {
    bench::Scenario s;
    s.nnodes = 1 << rng.uniform_int(1, 6);
    s.ppn = 1 << rng.uniform_int(0, 5);
    if (rng.chance(trace_frac)) {
      const traces::CollectiveCall& call = trace_pool[rng.index(trace_pool.size())];
      s.collective = call.collective;
      s.msg_bytes = call.msg_bytes;
    } else {
      s.collective = collectives[rng.index(collectives.size())];
      s.msg_bytes = std::uint64_t{1} << rng.uniform_int(3, 20);
    }
    return s;
  };

  // Distinct scenarios seen, for the differential pass afterwards.
  constexpr std::size_t kDistinctCap = 50'000;
  std::set<ScenarioKey> seen;
  std::vector<bench::Scenario> distinct;

  std::uint64_t issued = 0;
  std::uint64_t singles = 0;
  std::uint64_t batches = 0;
  std::uint64_t iteration = 0;
  std::vector<bench::Scenario> request;
  while (issued < total_queries) {
    request.clear();
    const std::size_t want =
        static_cast<std::size_t>(std::min<std::uint64_t>(batch, total_queries - issued));
    for (std::size_t i = 0; i < want; ++i) {
      request.push_back(draw_scenario());
      if (seen.size() < kDistinctCap && seen.insert(key_of(request.back())).second) {
        distinct.push_back(request.back());
      }
    }
    // Every 8th iteration asks its queries one at a time through select()
    // so serve.query_us fills alongside serve.batch_us.
    if (iteration % 8 == 0) {
      for (const bench::Scenario& s : request) {
        core.select(s);
      }
      singles += request.size();
    } else {
      core.select_batch(request);
      ++batches;
    }
    issued += want;
    ++iteration;
    if (issued % 200'000 < batch && issued >= 200'000) {
      const auto st = core.cache_stats();
      std::cout << "  " << issued << " queries, hit rate "
                << util::fixed(100.0 * static_cast<double>(st.hits) /
                                   static_cast<double>(st.hits + st.misses),
                               1)
                << "%\n";
    }
  }

  // Differential check: serving (hit or recomputed miss) must equal direct
  // model selection for every distinct scenario observed.
  std::uint64_t mismatches = 0;
  for (const bench::Scenario& s : distinct) {
    const serve::Decision d = core.select(s);
    const core::CollectiveModel& model = models.at(s.collective);
    if (d.algorithm != model.select(s)) {
      ++mismatches;
      if (mismatches <= 5) {
        std::cerr << "MISMATCH at " << s.to_string() << "\n";
      }
    }
  }

  const auto st = core.cache_stats();
  telemetry::Histogram& query_us =
      telemetry::metrics().histogram("serve.query_us", {1e-3, 48});
  telemetry::Histogram& batch_us =
      telemetry::metrics().histogram("serve.batch_us", {1e-2, 48});

  util::TablePrinter table({"path", "requests", "p50", "p95", "p99"});
  table.add_row({"single query (us)", std::to_string(query_us.count()),
                 util::fixed(query_us.percentile(0.50), 2),
                 util::fixed(query_us.percentile(0.95), 2),
                 util::fixed(query_us.percentile(0.99), 2)});
  table.add_row({"batch of " + std::to_string(batch) + " (us)", std::to_string(batch_us.count()),
                 util::fixed(batch_us.percentile(0.50), 2),
                 util::fixed(batch_us.percentile(0.95), 2),
                 util::fixed(batch_us.percentile(0.99), 2)});
  table.print(std::cout);
  std::cout << "queries " << issued << " (" << singles << " single, " << batches
            << " batches), cache hits " << st.hits << ", misses " << st.misses
            << ", evictions " << st.evictions << ", distinct scenarios checked "
            << distinct.size() << ", mismatches " << mismatches << "\n";

  util::Json row = util::Json::object();
  row["queries"] = issued;
  row["batch"] = batch;
  row["trace_frac"] = trace_frac;
  row["cache_capacity"] = cache_capacity;
  row["cache_hits"] = st.hits;
  row["cache_misses"] = st.misses;
  row["cache_evictions"] = st.evictions;
  row["distinct_checked"] = distinct.size();
  row["mismatches"] = mismatches;
  row["query_p50_us"] = query_us.percentile(0.50);
  row["query_p95_us"] = query_us.percentile(0.95);
  row["query_p99_us"] = query_us.percentile(0.99);
  row["batch_p50_us"] = batch_us.percentile(0.50);
  row["batch_p95_us"] = batch_us.percentile(0.95);
  row["batch_p99_us"] = batch_us.percentile(0.99);
  env.add_row(std::move(row));

  if (mismatches != 0) {
    std::cerr << "differential check FAILED: " << mismatches << " mismatches\n";
    return 1;
  }
  std::cout << "differential check passed: serving == direct selection on all "
            << distinct.size() << " distinct scenarios\n";
  return 0;
}
