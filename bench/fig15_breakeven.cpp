// Fig. 15 — Minimum application runtime for overall acceleration. Paper:
// given measured training times, an application sped up 1.01x by better
// selections recoups ACCLAiM's cost after 6.4-9.5 hours; larger speedups
// amortize within minutes to an hour, so typical Theta jobs benefit.
#include <filesystem>
#include <iostream>

#include "common.hpp"
#include "core/pipeline.hpp"
#include "platform/app_model.hpp"
#include "util/csv.hpp"
#include "util/units.hpp"

using namespace acclaim;

namespace {

/// Training-time band (seconds): per-collective training times — an
/// application pays for the collectives it actually uses (most tune one or
/// two), so the paper's band is per-collective, not the four-collective job
/// total. Reads the Fig. 14 results when present; otherwise measures two
/// quick jobs itself.
std::pair<double, double> training_band() {
  const std::string fig14 = "results/fig14.csv";
  if (std::filesystem::exists(fig14)) {
    const util::CsvTable t = util::read_csv(fig14);
    double lo = 1e30;
    double hi = 0.0;
    for (const char* col_name : {"allgather_s", "allreduce_s", "bcast_s", "reduce_s"}) {
      const std::size_t col = t.column_index(col_name);
      for (const auto& row : t.rows) {
        const double v = std::stod(row[col]);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
    }
    if (hi > 0.0) {
      std::cout << "(per-collective training times from " << fig14 << ")\n";
      return {lo, hi};
    }
  }
  std::cout << "(results/fig14.csv not found; measuring 32- and 128-node jobs)\n";
  core::ActiveLearnerConfig learner;
  learner.forest = benchharness::bench_forest();
  learner.max_points = 250;
  const core::AcclaimPipeline pipeline(simnet::theta_like(), learner);
  double lo = 1e30;
  double hi = 0.0;
  for (int nodes : {32, 128}) {
    core::JobSpec spec;
    spec.collectives = coll::paper_collectives();
    spec.nnodes = nodes;
    spec.ppn = 16;
    spec.max_msg = 1 << 20;
    spec.job_seed = 40 + static_cast<std::uint64_t>(nodes);
    for (const auto& t : pipeline.run(spec).training) {
      lo = std::min(lo, t.train_time_s);
      hi = std::max(hi, t.train_time_s);
    }
  }
  return {lo, hi};
}

}  // namespace

int main(int argc, char** argv) {
  benchharness::BenchEnv bench_env(argc, argv, "fig15");
  benchharness::banner("Fig. 15: minimum application runtime for overall acceleration",
                       "Expectation: ~1.01x speedup needs a few hours; >=1.05x well under an hour");

  const auto [lo_s, hi_s] = training_band();
  std::cout << "training-time band: " << util::format_seconds(lo_s) << " .. "
            << util::format_seconds(hi_s) << "\n\n";

  util::TablePrinter table({"application speedup", "min runtime (fast train)",
                            "min runtime (slow train)"});
  util::CsvWriter csv(benchharness::results_path("fig15"));
  csv.header({"speedup", "breakeven_lo_s", "breakeven_hi_s"});
  for (double s : {1.005, 1.01, 1.02, 1.05, 1.10, 1.20}) {
    const double lo = platform::breakeven_runtime_s(lo_s, s);
    const double hi = platform::breakeven_runtime_s(hi_s, s);
    table.add_row({util::fixed(s, 3) + "x", util::format_seconds(lo),
                   util::format_seconds(hi)});
    csv.row_numeric({s, lo, hi});
    util::Json row = util::Json::object();
    row["speedup"] = s;
    row["breakeven_lo_s"] = lo;
    row["breakeven_hi_s"] = hi;
    bench_env.add_row(std::move(row));
  }
  table.print(std::cout);
  std::cout << "\n(paper: 1.01x -> 6.4-9.5 hours, well within common Theta job durations)\n";
  return 0;
}
