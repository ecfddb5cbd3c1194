// Fig. 5 — FACT's performance on non-power-of-two test sets for MPI_Bcast.
// Paper: trained on P2 points only, FACT performs near-optimally on the
// all-P2 test set, consistently worse on non-P2 node counts, and fails to
// learn the trends for non-P2 message sizes at all.
#include <iostream>

#include "common.hpp"
#include "util/csv.hpp"

using namespace acclaim;
using benchharness::bebop_dataset;

int main(int argc, char** argv) {
  benchharness::BenchEnv bench_env(argc, argv);
  benchharness::banner("Fig. 5: FACT (P2-trained) on non-P2 test sets for MPI_Bcast",
                       "Expectation: all-P2 near-optimal > non-P2 nodes > non-P2 msg sizes");

  const bench::Dataset& ds = bebop_dataset();
  const core::FeatureSpace space = benchharness::bebop_space();
  const core::Evaluator ev(ds);
  const coll::Collective c = coll::Collective::Bcast;

  // FACT's P2-only acquisition order.
  core::DatasetEnvironment env(ds);
  core::SurrogateAcquisitionConfig scfg;
  scfg.surrogate = benchharness::bench_forest();
  scfg.refresh_every = 25;
  core::SurrogateAcquisition policy(c, 1, scfg);
  core::ActiveLearnerConfig tcfg;
  tcfg.forest = benchharness::bench_forest();
  tcfg.refit_every = 50;
  tcfg.max_points = static_cast<int>(0.9 * static_cast<double>(space.candidates(c).size()));
  const core::AcquisitionTrace trace = core::trace_acquisition(c, space, env, policy, tcfg);

  const auto p2 = benchharness::p2_test_set(c);
  const auto np2_nodes = benchharness::nonp2_node_test_set(c);
  const auto np2_msgs = benchharness::nonp2_msg_test_set(c);
  std::cout << "test sets: all-P2 " << p2.size() << ", non-P2 nodes " << np2_nodes.size()
            << ", non-P2 msgs " << np2_msgs.size() << " scenarios\n";

  const std::vector<double> fractions = {0.05, 0.10, 0.20, 0.40, 0.60, 0.80};
  util::TablePrinter table(
      {"% of training points", "All P2", "Non-P2 nodes", "Non-P2 msg size"});
  util::CsvWriter csv(benchharness::results_path("fig05"));
  csv.header({"fraction_pct", "all_p2", "nonp2_nodes", "nonp2_msgs"});
  double gap_nodes = 0.0;
  double gap_msgs = 0.0;
  for (double f : fractions) {
    const auto k = std::max<std::size_t>(
        2, static_cast<std::size_t>(f * static_cast<double>(trace.steps.size())));
    const auto model = core::train_on_prefix(trace, k, benchharness::bench_forest(), 3);
    const double s_p2 = ev.average_slowdown(p2, model);
    const double s_nodes = ev.average_slowdown(np2_nodes, model);
    const double s_msgs = ev.average_slowdown(np2_msgs, model);
    table.add_row_numeric(util::fixed(f * 100, 0), {s_p2, s_nodes, s_msgs});
    csv.row_numeric({f * 100, s_p2, s_nodes, s_msgs});
    gap_nodes += s_nodes - s_p2;
    gap_msgs += s_msgs - s_p2;
  }
  table.print(std::cout);
  std::cout << "\nMean slowdown penalty vs all-P2:  non-P2 nodes +"
            << util::fixed(gap_nodes / static_cast<double>(fractions.size()), 3)
            << ",  non-P2 msg sizes +"
            << util::fixed(gap_msgs / static_cast<double>(fractions.size()), 3)
            << "\n(paper: msg-size penalty is the largest and does not improve with data)\n";
  return 0;
}
