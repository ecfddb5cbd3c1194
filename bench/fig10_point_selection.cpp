// Fig. 10 — Training data collection time: ACCLAiM's jackknife point
// selection vs FACT's surrogate-driven selection, per collective. Paper:
// ACCLAiM converges in up to 2.3x less time (allgather); FACT is slightly
// faster for allreduce and bcast; both converge almost instantly for reduce;
// cumulatively ACCLAiM is 2.25x faster.
//
// --ablation additionally runs random acquisition and the paper-literal
// argmax variant on the same primary model, isolating the value of the
// variance guidance and of the weighted-sampling adaptation (DESIGN.md §5).
#include <iostream>
#include <memory>

#include "common.hpp"
#include "util/csv.hpp"
#include "util/units.hpp"

using namespace acclaim;
using benchharness::bebop_dataset;

namespace {

struct MethodResult {
  std::vector<benchharness::SweepRow> curve;
  double converge_s = -1.0;
};

MethodResult run_one(coll::Collective c, core::AcquisitionPolicy& policy,
                     const std::vector<bench::Scenario>& test, const core::Evaluator& ev,
                     std::uint64_t seed) {
  core::DatasetEnvironment env(bebop_dataset());
  core::ActiveLearnerConfig tcfg;
  tcfg.forest = benchharness::bench_forest();
  tcfg.refit_every = 5;
  tcfg.seed = seed;
  tcfg.max_points = 600;
  const core::AcquisitionTrace trace =
      core::trace_acquisition(c, benchharness::bebop_space(), env, policy, tcfg);
  // Evaluate prefixes every ~2% of the trace.
  std::vector<double> fractions;
  for (double f = 0.02; f <= 1.0; f += 0.02) {
    fractions.push_back(f);
  }
  MethodResult r;
  r.curve = benchharness::sweep_trace(trace, fractions, test, ev, seed);
  r.converge_s = benchharness::converge_time_s(r.curve);
  return r;
}

/// Mean convergence time over a couple of seeds (single traces are noisy);
/// non-converging seeds count as the full trace cost.
template <typename PolicyFactory>
MethodResult run_method(coll::Collective c, PolicyFactory make_policy,
                        const std::vector<bench::Scenario>& test, const core::Evaluator& ev) {
  constexpr std::uint64_t kSeeds[] = {5, 11};
  MethodResult mean;
  int converged = 0;
  for (std::uint64_t seed : kSeeds) {
    auto policy = make_policy(seed);
    const MethodResult r = run_one(c, *policy, test, ev, seed);
    mean.curve = r.curve;  // keep the last curve for the CSV
    if (r.converge_s > 0) {
      mean.converge_s = (mean.converge_s < 0 ? 0 : mean.converge_s) + r.converge_s;
      ++converged;
    } else if (!r.curve.empty()) {
      mean.converge_s =
          (mean.converge_s < 0 ? 0 : mean.converge_s) + r.curve.back().cost_s;
    }
  }
  if (converged == 0) {
    mean.converge_s = -1.0;
  } else {
    mean.converge_s /= static_cast<double>(std::size(kSeeds));
  }
  return mean;
}

}  // namespace

int main(int argc, char** argv) {
  benchharness::BenchEnv bench_env(argc, argv, "fig10", {}, {"ablation"});
  const bool ablation = bench_env.has("ablation");
  benchharness::banner("Fig. 10: ACCLAiM vs FACT training point selection",
                       "Expectation: ACCLAiM converges faster cumulatively (~2.25x in the paper),"
                       " with per-collective wins and losses");

  const core::Evaluator ev(bebop_dataset());
  util::TablePrinter table({"collective", "ACCLAiM converge", "FACT converge", "speedup"});
  util::CsvWriter csv(benchharness::results_path(ablation ? "fig10_ablation" : "fig10"));
  if (ablation) {
    csv.header({"collective", "acclaim_s", "fact_s", "random_s", "argmax_s"});
  } else {
    csv.header({"collective", "acclaim_s", "fact_s", "speedup"});
  }

  double acclaim_total = 0.0;
  double fact_total = 0.0;
  for (coll::Collective c : coll::paper_collectives()) {
    const auto test = benchharness::p2_test_set(c);
    const MethodResult acclaim = run_method(
        c, [](std::uint64_t) { return std::make_unique<core::AcclaimAcquisition>(); }, test,
        ev);
    const MethodResult fact = run_method(
        c,
        [&](std::uint64_t seed) {
          core::SurrogateAcquisitionConfig scfg;
          scfg.surrogate = benchharness::bench_forest();
          scfg.refresh_every = 5;
          return std::make_unique<core::SurrogateAcquisition>(c, seed, scfg);
        },
        test, ev);

    bool relaxed = false;
    MethodResult acclaim_eff = acclaim;
    MethodResult fact_eff = fact;
    if (acclaim.converge_s < 0 && fact.converge_s < 0) {
      // Neither method reaches 1.03 on this collective within the traced
      // budget (our simulated allgather surface is harder than Theta's);
      // compare time-to-1.10 instead and say so.
      relaxed = true;
      acclaim_eff.converge_s = benchharness::converge_time_s(acclaim.curve, 1.10);
      fact_eff.converge_s = benchharness::converge_time_s(fact.curve, 1.10);
    }
    const bool both = acclaim_eff.converge_s > 0 && fact_eff.converge_s > 0;
    const double speedup = both ? fact_eff.converge_s / acclaim_eff.converge_s : 0.0;
    auto fmt = [&](double s) {
      return s > 0 ? util::format_seconds(s) + (relaxed ? " (@1.10)" : "")
                   : std::string("no convergence");
    };
    table.add_row({coll::collective_name(c), fmt(acclaim_eff.converge_s),
                   fmt(fact_eff.converge_s), both ? util::fixed(speedup, 2) + "x" : "-"});
    if (acclaim_eff.converge_s > 0) {
      acclaim_total += acclaim_eff.converge_s;
    }
    if (fact_eff.converge_s > 0) {
      fact_total += fact_eff.converge_s;
    }

    if (ablation) {
      const MethodResult random = run_method(
          c, [](std::uint64_t) { return std::make_unique<core::RandomAcquisition>(); }, test,
          ev);
      const MethodResult argmax = run_method(
          c,
          [](std::uint64_t) {
            return std::make_unique<core::AcclaimAcquisition>(
                core::AcclaimAcquisitionConfig{5, core::VariancePick::Argmax});
          },
          test, ev);
      csv.row_numeric({static_cast<double>(static_cast<int>(c)), acclaim.converge_s,
                       fact.converge_s, random.converge_s, argmax.converge_s});
      std::cout << "  [ablation] " << coll::collective_name(c) << ": random "
                << fmt(random.converge_s) << ", paper-literal argmax "
                << fmt(argmax.converge_s) << "\n";
    } else {
      csv.row_numeric({static_cast<double>(static_cast<int>(c)), acclaim.converge_s,
                       fact.converge_s, speedup});
    }
    util::Json row = util::Json::object();
    row["collective"] = coll::collective_name(c);
    row["acclaim_s"] = acclaim_eff.converge_s;
    row["fact_s"] = fact_eff.converge_s;
    row["speedup"] = speedup;
    bench_env.add_row(std::move(row));
  }
  table.print(std::cout);
  if (acclaim_total > 0 && fact_total > 0) {
    std::cout << "\nCumulative: ACCLAiM " << util::format_seconds(acclaim_total) << " vs FACT "
              << util::format_seconds(fact_total) << " -> "
              << util::fixed(fact_total / acclaim_total, 2)
              << "x (paper: 2.25x cumulative)\n";
  }
  return 0;
}
