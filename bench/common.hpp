// Shared infrastructure for the figure-reproduction bench harnesses.
//
// Every paper figure gets one binary. Each binary prints the same
// rows/series the paper reports and writes a CSV under ./results/ so the
// series can be re-plotted. The precollected bebop-scale dataset (the
// paper's Fig. 1(a) simulated-experiment input) is collected once and cached
// under the repository's data/ directory.
#pragma once

#include <chrono>
#include <string>
#include <vector>

#include "benchdata/dataset.hpp"
#include "cli_args.hpp"
#include "core/acquisition.hpp"
#include "core/active_learner.hpp"
#include "core/baselines.hpp"
#include "core/evaluator.hpp"
#include "core/feature_space.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace acclaim::benchharness {

/// The paper's convergence criterion.
inline constexpr double kConvergence = 1.03;

/// Forest size used throughout the benches (smaller than the scikit default
/// of 100 to keep every figure harness under a couple of minutes; the
/// comparisons are internally consistent).
ml::ForestParams bench_forest();

/// The precollected simulated-experiment dataset: bebop-like machine,
/// P2 grid (2-64 nodes, 1-32 ppn, 8 B - 1 MiB) plus one non-P2 variant per
/// message-size and node-count anchor, all four collectives. Cached at
/// data/bebop_full.csv; first call collects (~1-2 minutes).
const bench::Dataset& bebop_dataset();

/// The P2 training feature space matching the dataset.
core::FeatureSpace bebop_space();

/// Test scenario slices of the dataset for one collective.
std::vector<bench::Scenario> p2_test_set(coll::Collective c);
std::vector<bench::Scenario> nonp2_msg_test_set(coll::Collective c);
std::vector<bench::Scenario> nonp2_node_test_set(coll::Collective c);
/// Every scenario the dataset holds (P2 and non-P2) — the "full feature
/// space" the FACT test-set protocol samples from.
std::vector<bench::Scenario> full_test_set(coll::Collective c);

/// Ensures ./results exists and returns "results/<name>.csv".
std::string results_path(const std::string& name);

/// Average slowdown of models trained on trace prefixes, one row per
/// requested fraction of the trace.
struct SweepRow {
  double fraction = 0.0;     ///< of the traced points
  std::size_t points = 0;
  double cost_s = 0.0;       ///< collection time of the prefix
  double slowdown = 0.0;
};
std::vector<SweepRow> sweep_trace(const core::AcquisitionTrace& trace,
                                  const std::vector<double>& fractions,
                                  const std::vector<bench::Scenario>& test,
                                  const core::Evaluator& ev, std::uint64_t seed);

/// First collection time at which the slowdown curve reaches `threshold`
/// and holds it for at least one further checkpoint (the paper marks the
/// first sustained crossing on its curves); negative if never.
double converge_time_s(const std::vector<SweepRow>& rows, double threshold = kConvergence);

/// Prints the standard figure banner.
void banner(const std::string& figure, const std::string& claim);

/// A bench's command line, parsed with cli::Args first thing in every bench
/// main: the five run flags (cli::with_run_flags: --threads, --trace-out,
/// --metrics-out, --audit-out, --profile-out), --json-out DIR, and the flags
/// and switches the bench declares. --json-out writes DIR/BENCH_<figure>.json
/// on exit: the figure id, the rows the bench registered with add_row(), and
/// the host-wall runtime, the machine-readable artifact CI tracks across
/// PRs; only a bench constructed with a figure id takes it. An unknown flag,
/// a bad value or an output that cannot be opened exits 2 with one `error:`
/// line. The destructor writes the run outputs (cli::finish_run_outputs) and
/// the BENCH json.
class BenchEnv {
 public:
  /// `figure` names the BENCH_<figure>.json artifact (e.g. "fig12"); empty
  /// for a bench that registers no rows.
  BenchEnv(int argc, char** argv, std::string figure = {},
           const std::vector<std::string>& flags = {},
           const std::vector<std::string>& switches = {});
  ~BenchEnv();
  BenchEnv(const BenchEnv&) = delete;
  BenchEnv& operator=(const BenchEnv&) = delete;

  /// The bench's own flags and switches; a bad value exits 2 like an
  /// unknown flag.
  bool has(const std::string& flag) const { return args_.has(flag); }
  int get_int(const std::string& flag, int fallback) const;
  std::size_t get_count(const std::string& flag, std::size_t fallback) const;
  double get_double(const std::string& flag, double fallback) const;

  /// Registers one machine-readable result row (a flat JSON object mirroring
  /// what the figure prints/CSVs). Cheap no-op when --json-out is off.
  void add_row(util::Json row);

 private:
  cli::Args args_;
  std::string figure_;
  util::Json rows_ = util::Json::array();
  std::chrono::steady_clock::time_point start_;
};

}  // namespace acclaim::benchharness
