// Fig. 3 — Performance comparison of the two previous state-of-the-art
// autotuners. Paper: FACT stays below the 1.03 average-slowdown convergence
// criterion with far less training data than Hunold et al.'s
// random-sampling, model-per-algorithm design.
#include <iostream>

#include "common.hpp"
#include "util/csv.hpp"

using namespace acclaim;
using benchharness::bebop_dataset;
using benchharness::bebop_space;

int main(int argc, char** argv) {
  benchharness::BenchEnv bench_env(argc, argv);
  benchharness::banner(
      "Fig. 3: Hunold et al. vs FACT (average slowdown vs % of training points)",
      "Expectation: FACT stays under 1.03 with far less data than Hunold");

  const bench::Dataset& ds = bebop_dataset();
  const core::FeatureSpace space = bebop_space();
  const core::Evaluator ev(ds);
  const std::vector<double> fractions = {0.02, 0.05, 0.10, 0.20, 0.40, 0.60, 0.80};

  // Aggregate over the four collectives (the paper's Fig. 3 is aggregate).
  std::vector<double> hunold_slow(fractions.size(), 0.0);
  std::vector<double> fact_slow(fractions.size(), 0.0);
  for (coll::Collective c : coll::paper_collectives()) {
    const auto test = benchharness::p2_test_set(c);

    // Hunold: per-algorithm forests on random point samples.
    for (std::size_t i = 0; i < fractions.size(); ++i) {
      double sum = 0.0;
      constexpr int kSeeds = 2;
      for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
        core::HunoldAutotuner tuner(c, benchharness::bench_forest());
        tuner.fit(ds, fractions[i], seed);
        sum += ev.average_slowdown(
            test, [&](const bench::Scenario& s) { return tuner.select(s); });
      }
      hunold_slow[i] += sum / kSeeds;
    }

    // FACT: surrogate-driven acquisition order; prefix-trained primaries.
    // The surrogate refreshes frequently — a stale surrogate under argmax
    // picks long runs of near-identical points, which would understate FACT.
    core::DatasetEnvironment env(ds);
    core::SurrogateAcquisitionConfig scfg;
    scfg.surrogate = benchharness::bench_forest();
    scfg.refresh_every = 5;
    core::SurrogateAcquisition policy(c, 1, scfg);
    core::ActiveLearnerConfig tcfg;
    tcfg.forest = benchharness::bench_forest();
    tcfg.refit_every = 50;
    tcfg.max_points =
        static_cast<int>(0.8 * static_cast<double>(space.candidates(c).size()));
    const core::AcquisitionTrace trace =
        core::trace_acquisition(c, space, env, policy, tcfg);
    for (std::size_t i = 0; i < fractions.size(); ++i) {
      // Fraction of the candidate pool, expressed as a trace prefix.
      const auto k = std::max<std::size_t>(
          2, static_cast<std::size_t>(fractions[i] *
                                      static_cast<double>(space.candidates(c).size())));
      if (k > trace.steps.size()) {
        fact_slow[i] += fact_slow[i > 0 ? i - 1 : 0];
        continue;
      }
      const auto model = core::train_on_prefix(trace, k, benchharness::bench_forest(), 3);
      fact_slow[i] += ev.average_slowdown(test, model);
    }
    std::cout << "  traced " << coll::collective_name(c) << "\n";
  }

  util::TablePrinter table({"% of training points", "Hunold avg slowdown", "FACT avg slowdown"});
  util::CsvWriter csv(benchharness::results_path("fig03"));
  csv.header({"fraction_pct", "hunold_slowdown", "fact_slowdown"});
  double hunold_first_conv = -1.0;
  double fact_first_conv = -1.0;
  for (std::size_t i = 0; i < fractions.size(); ++i) {
    const double h = hunold_slow[i] / 4.0;
    const double f = fact_slow[i] / 4.0;
    table.add_row_numeric(util::fixed(fractions[i] * 100.0, 1), {h, f});
    csv.row_numeric({fractions[i] * 100.0, h, f});
    if (h <= benchharness::kConvergence && hunold_first_conv < 0) {
      hunold_first_conv = fractions[i];
    }
    if (f <= benchharness::kConvergence && fact_first_conv < 0) {
      fact_first_conv = fractions[i];
    }
  }
  table.print(std::cout);
  std::cout << "\nFirst fraction under the 1.03 criterion:  FACT "
            << (fact_first_conv < 0 ? std::string("never")
                                    : util::fixed(fact_first_conv * 100, 1) + "%")
            << "  vs  Hunold "
            << (hunold_first_conv < 0 ? std::string("never")
                                      : util::fixed(hunold_first_conv * 100, 1) + "%")
            << "\n(paper: FACT converges with far less data than Hunold)\n";
  return 0;
}
