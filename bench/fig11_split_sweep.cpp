// Fig. 11 — The P2/non-P2 training-data split for MPI_Bcast. Paper: an
// all-P2 training set fails on non-P2 message sizes; a 50-50 split fixes
// non-P2 but sacrifices P2 performance; ACCLAiM's 80-20 split (every fifth
// point non-P2) keeps P2 performance while dramatically improving non-P2 —
// the "Goldilocks" balance. Includes the cadence ablation (every 2nd / 5th /
// 10th point) DESIGN.md calls out.
#include <iostream>

#include "common.hpp"
#include "util/csv.hpp"

using namespace acclaim;
using benchharness::bebop_dataset;

namespace {

/// Trace with a given non-P2 cadence; returns {P2 slowdown, non-P2 slowdown}
/// at each fraction.
struct SplitCurve {
  std::vector<benchharness::SweepRow> p2;
  std::vector<benchharness::SweepRow> nonp2;
};

SplitCurve run_split(int cadence, const std::vector<double>& fractions) {
  const coll::Collective c = coll::Collective::Bcast;
  const core::Evaluator ev(bebop_dataset());
  core::DatasetEnvironment env(bebop_dataset());
  core::AcclaimAcquisition policy(core::AcclaimAcquisitionConfig{cadence});
  core::ActiveLearnerConfig tcfg;
  tcfg.forest = benchharness::bench_forest();
  tcfg.refit_every = 10;
  tcfg.seed = 9;
  tcfg.max_points = 500;
  const core::AcquisitionTrace trace =
      core::trace_acquisition(c, benchharness::bebop_space(), env, policy, tcfg);
  SplitCurve curve;
  curve.p2 = benchharness::sweep_trace(trace, fractions, benchharness::p2_test_set(c), ev, 9);
  curve.nonp2 =
      benchharness::sweep_trace(trace, fractions, benchharness::nonp2_msg_test_set(c), ev, 9);
  return curve;
}

double mean_slowdown(const std::vector<benchharness::SweepRow>& rows, std::size_t from) {
  double s = 0.0;
  std::size_t n = 0;
  for (std::size_t i = from; i < rows.size(); ++i) {
    s += rows[i].slowdown;
    ++n;
  }
  return n ? s / static_cast<double>(n) : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  benchharness::BenchEnv bench_env(argc, argv);
  benchharness::banner(
      "Fig. 11: P2 vs non-P2 training split for MPI_Bcast",
      "Expectation: 80-20 keeps P2 performance while fixing non-P2; 50-50 hurts P2");

  const std::vector<double> fractions = {0.1, 0.2, 0.4, 0.6, 0.8, 1.0};
  // cadence 0 = all P2; 2 = 50-50; 5 = 80-20 (ACCLAiM); 10 = 90-10 ablation.
  const std::vector<std::pair<int, std::string>> splits = {
      {0, "all-P2"}, {2, "50-50"}, {5, "80-20 (ACCLAiM)"}, {10, "90-10 (ablation)"}};

  util::TablePrinter table({"split", "P2 slowdown (mean, latter half)",
                            "non-P2 msg slowdown (mean, latter half)"});
  util::CsvWriter csv(benchharness::results_path("fig11"));
  csv.header({"split", "fraction", "p2_slowdown", "nonp2_slowdown"});
  for (const auto& [cadence, name] : splits) {
    const SplitCurve curve = run_split(cadence, fractions);
    for (std::size_t i = 0; i < curve.p2.size(); ++i) {
      csv.row({name, util::format_double(curve.p2[i].fraction),
               util::format_double(curve.p2[i].slowdown),
               util::format_double(curve.nonp2[i].slowdown)});
    }
    const std::size_t half = curve.p2.size() / 2;
    table.add_row_numeric(name,
                          {mean_slowdown(curve.p2, half), mean_slowdown(curve.nonp2, half)});
    std::cout << "  swept " << name << "\n";
  }
  table.print(std::cout);
  std::cout << "\n(paper: all-P2 worst on non-P2; 50-50 best on non-P2 but worse on P2;\n"
               " 80-20 preserves P2 while substantially improving non-P2)\n";
  return 0;
}
