// Fleet-scale trace replay: cold start vs warm-start model transfer.
//
// Not a paper figure — this extends the Fig. 15 amortization story from one
// job to a whole machine's job stream (ROADMAP "fleet-scale trace replay").
// The harness replays the identical arrival stream twice against a fresh
// model store: once with transfer disabled (every job trains from scratch)
// and once with ModelStore::nearest warm starts. The claim under test: at
// fleet scale most jobs find a close donor, so the warm fleet reaches its
// selection quality with measurably less total simulated training time, and
// the fleet-wide mean break-even runtime drops accordingly.
//
// Machine-readable output (--json-out): BENCH_fleet.json with one row per
// arm (cold/warm) carrying the FleetTotals and the replay fingerprint; the
// scheduled CI lane parses it against tools/ci/fleet_thresholds.json.
// Exits non-zero when the warm arm fails to beat the cold arm on total
// training cost or mean speedup — the regression this bench exists to gate.
#include <iostream>
#include <string>

#include "common.hpp"
#include "fleet/fleet.hpp"
#include "simnet/machine.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace acclaim;

namespace {

fleet::FleetConfig base_config(int jobs, std::uint64_t seed) {
  fleet::FleetConfig config;
  config.machine = simnet::bebop_like();
  config.stream.n_jobs = jobs;
  config.stream.mean_interarrival_s = 45.0;
  config.stream.node_choices = {4, 8, 16};
  config.stream.ppn_choices = {2, 4, 8};
  config.stream.seed = seed;
  // Small forests and point caps keep a >=1000-job replay tractable on one
  // host; the cold/warm comparison is internally consistent.
  config.learner.forest = benchharness::bench_forest();
  config.learner.max_points = 90;
  config.trace_calls = 128;
  return config;
}

util::Json arm_row(const std::string& arm, const fleet::FleetResult& r) {
  util::Json row = util::Json::object();
  row["arm"] = arm;
  row["jobs"] = r.totals.jobs;
  row["warm_jobs"] = r.totals.warm_jobs;
  row["points"] = r.totals.points;
  row["training_s"] = r.totals.training_s;
  row["mean_speedup"] = r.totals.mean_speedup;
  row["mean_breakeven_s"] = r.totals.mean_breakeven_s;
  row["amortizing_jobs"] = r.totals.amortizing_jobs;
  row["mean_transfer_distance"] = r.totals.mean_transfer_distance;
  row["makespan_s"] = r.totals.makespan_s;
  row["fingerprint"] = r.fingerprint;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  benchharness::BenchEnv bench_env(argc, argv, "fleet", {"jobs", "seed"});
  const int jobs = static_cast<int>(bench_env.get_count("jobs", 1000));
  const auto seed = static_cast<std::uint64_t>(bench_env.get_int("seed", 7));

  benchharness::banner(
      "Fleet replay: warm-start model transfer vs cold start (" + std::to_string(jobs) + " jobs)",
      "Expectation: the warm fleet trains with measurably less total collection time");

  fleet::FleetConfig cold_cfg = base_config(jobs, seed);
  cold_cfg.warm_start = false;
  serve::ModelStore cold_store;
  const fleet::FleetResult cold = fleet::replay_fleet(cold_cfg, cold_store);

  fleet::FleetConfig warm_cfg = base_config(jobs, seed);
  warm_cfg.warm_start = true;
  serve::ModelStore warm_store;
  const fleet::FleetResult warm = fleet::replay_fleet(warm_cfg, warm_store);

  util::TablePrinter table({"arm", "jobs", "warm", "points", "training", "mean speedup",
                            "mean breakeven", "store keys"});
  const auto add = [&](const char* arm, const fleet::FleetResult& r, std::size_t store_keys) {
    table.add_row({arm, std::to_string(r.totals.jobs), std::to_string(r.totals.warm_jobs),
                   std::to_string(r.totals.points), util::format_seconds(r.totals.training_s),
                   util::fixed(r.totals.mean_speedup, 3) + "x",
                   util::format_seconds(r.totals.mean_breakeven_s), std::to_string(store_keys)});
  };
  add("cold", cold, cold_store.size());
  add("warm", warm, warm_store.size());
  table.print(std::cout);

  util::CsvWriter csv(benchharness::results_path("fleet"));
  csv.header({"arm", "jobs", "warm_jobs", "points", "training_s", "mean_speedup",
              "mean_breakeven_s", "makespan_s"});
  for (const auto* pair : {&cold, &warm}) {
    const fleet::FleetTotals& t = pair->totals;
    csv.row_numeric({pair == &cold ? 0.0 : 1.0, static_cast<double>(t.jobs),
                     static_cast<double>(t.warm_jobs), static_cast<double>(t.points),
                     t.training_s, t.mean_speedup, t.mean_breakeven_s, t.makespan_s});
  }
  bench_env.add_row(arm_row("cold", cold));
  bench_env.add_row(arm_row("warm", warm));

  const double cost_ratio =
      cold.totals.training_s > 0.0 ? warm.totals.training_s / cold.totals.training_s : 1.0;
  std::cout << "\nwarm/cold training-cost ratio: " << util::fixed(cost_ratio, 3)
            << "  (transfer hits: " << warm.totals.warm_jobs << "/" << warm.totals.jobs
            << ", mean distance "
            << util::fixed(warm.totals.mean_transfer_distance, 2) << ")\n";
  std::cout << "fingerprints: cold=" << cold.fingerprint << " warm=" << warm.fingerprint << "\n";

  // The gate: transfer must actually pay. A warm fleet that trains no
  // cheaper than cold, keeps almost no job warm, or gives back the tuned
  // selection quality is a regression.
  bool ok = true;
  if (warm.totals.training_s >= 0.95 * cold.totals.training_s) {
    std::cout << "FAIL: warm fleet did not train measurably cheaper than cold\n";
    ok = false;
  }
  if (warm.totals.warm_jobs * 2 < warm.totals.jobs) {
    std::cout << "FAIL: fewer than half the warm-arm jobs found a transfer donor\n";
    ok = false;
  }
  if (warm.totals.mean_speedup < cold.totals.mean_speedup - 0.02) {
    std::cout << "FAIL: warm fleet gave back tuned selection quality\n";
    ok = false;
  }
  if (warm.totals.amortizing_jobs == 0) {
    std::cout << "FAIL: no warm-arm job reaches a finite break-even runtime\n";
    ok = false;
  }
  if (ok) {
    std::cout << "OK: warm start reaches fleet-wide breakeven cheaper than cold start\n";
  }
  return ok ? 0 : 1;
}
