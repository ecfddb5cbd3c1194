#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <utility>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

#ifndef ACCLAIM_DATA_DIR
#define ACCLAIM_DATA_DIR "data"
#endif

namespace acclaim::benchharness {

ml::ForestParams bench_forest() {
  ml::ForestParams p = core::default_forest_params();
  p.n_trees = 50;
  return p;
}

namespace {

bench::FeatureGrid full_grid() {
  bench::FeatureGrid g = bench::FeatureGrid::p2(64, 32, 8, 1 << 20);
  // Deterministic non-P2 variants: one per message anchor, one per node
  // anchor — the "full feature space" production applications actually use.
  util::Rng rng(0xACC1A1Full);
  const bench::FeatureGrid nm = g.with_nonp2_msgs(rng);
  bench::FeatureGrid nn = g.with_nonp2_nodes(rng);
  // Non-P2 node variants must fit the 64-node machine; redraw anything the
  // closest-P2 window pushed above it (anchor 64 draws from (48, 96)).
  for (int& n : nn.nodes) {
    while (n > 64) {
      n = static_cast<int>(rng.uniform_int(49, 63));
    }
  }
  g.msgs.insert(g.msgs.end(), nm.msgs.begin(), nm.msgs.end());
  g.nodes.insert(g.nodes.end(), nn.nodes.begin(), nn.nodes.end());
  std::sort(g.msgs.begin(), g.msgs.end());
  g.msgs.erase(std::unique(g.msgs.begin(), g.msgs.end()), g.msgs.end());
  std::sort(g.nodes.begin(), g.nodes.end());
  g.nodes.erase(std::unique(g.nodes.begin(), g.nodes.end()), g.nodes.end());
  return g;
}

}  // namespace

const bench::Dataset& bebop_dataset() {
  static const bench::Dataset ds = [] {
    const std::string path = std::string(ACCLAIM_DATA_DIR) + "/bebop_full.csv";
    std::cerr << "[dataset] " << path << " (collecting on first run; cached afterwards)\n";
    return bench::load_or_collect(path, simnet::bebop_like(), full_grid(),
                                  coll::paper_collectives(), 7);
  }();
  return ds;
}

core::FeatureSpace bebop_space() {
  return core::FeatureSpace::from_grid(bench::FeatureGrid::p2(64, 32, 8, 1 << 20));
}

std::vector<bench::Scenario> p2_test_set(coll::Collective c) {
  return bebop_space().scenarios(c);
}

namespace {
std::vector<bench::Scenario> filter_scenarios(coll::Collective c, bool want_p2_nodes,
                                              bool want_p2_msgs) {
  std::vector<bench::Scenario> out;
  for (const bench::Scenario& s : bebop_dataset().scenarios(c)) {
    const bool p2n = util::is_power_of_two(static_cast<std::uint64_t>(s.nnodes));
    const bool p2m = util::is_power_of_two(s.msg_bytes);
    if (p2n == want_p2_nodes && p2m == want_p2_msgs) {
      out.push_back(s);
    }
  }
  return out;
}
}  // namespace

std::vector<bench::Scenario> nonp2_msg_test_set(coll::Collective c) {
  return filter_scenarios(c, /*p2 nodes=*/true, /*p2 msgs=*/false);
}

std::vector<bench::Scenario> nonp2_node_test_set(coll::Collective c) {
  return filter_scenarios(c, /*p2 nodes=*/false, /*p2 msgs=*/true);
}

std::vector<bench::Scenario> full_test_set(coll::Collective c) {
  return bebop_dataset().scenarios(c);
}

std::string results_path(const std::string& name) {
  std::filesystem::create_directories("results");
  return "results/" + name + ".csv";
}

std::vector<SweepRow> sweep_trace(const core::AcquisitionTrace& trace,
                                  const std::vector<double>& fractions,
                                  const std::vector<bench::Scenario>& test,
                                  const core::Evaluator& ev, std::uint64_t seed) {
  std::vector<SweepRow> rows;
  for (double f : fractions) {
    const auto k = std::max<std::size_t>(
        2, static_cast<std::size_t>(std::llround(f * static_cast<double>(trace.steps.size()))));
    if (k > trace.steps.size()) {
      break;
    }
    const core::CollectiveModel model = core::train_on_prefix(trace, k, bench_forest(), seed);
    SweepRow row;
    row.fraction = f;
    row.points = k;
    row.cost_s = trace.prefix_cost_s(k);
    row.slowdown = ev.average_slowdown(test, model);
    rows.push_back(row);
  }
  return rows;
}

double converge_time_s(const std::vector<SweepRow>& rows, double threshold) {
  // First crossing that holds for >= 4 consecutive checkpoints (a lucky
  // prefix does not count; demanding it hold forever would penalize
  // ordinary refit noise late in the sweep).
  constexpr std::size_t kHold = 4;
  std::size_t held = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    held = rows[i].slowdown <= threshold ? held + 1 : 0;
    if (held >= kHold) {
      return rows[i + 1 - kHold].cost_s;
    }
  }
  return -1.0;
}

void banner(const std::string& figure, const std::string& claim) {
  std::cout << "==============================================================\n"
            << figure << "\n"
            << claim << "\n"
            << "==============================================================\n";
}

namespace {

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  std::exit(2);
}

/// Runs `step`, turning a library error into the benches' one-line usage
/// error (exit 2).
template <typename Step>
auto or_usage_error(Step step) {
  try {
    return step();
  } catch (const Error& e) {
    usage_error(e.what());
  }
}

}  // namespace

BenchEnv::BenchEnv(int argc, char** argv, std::string figure,
                   const std::vector<std::string>& flags,
                   const std::vector<std::string>& switches)
    : args_(or_usage_error([&] {
        std::vector<std::string> known = cli::with_run_flags(flags);
        known.push_back("json-out");
        return cli::Args(argc - 1, argv + 1, known, switches);
      })),
      figure_(std::move(figure)),
      start_(std::chrono::steady_clock::now()) {
  if (args_.has("json-out") && figure_.empty()) {
    usage_error("flag '--json-out' is not supported: this bench writes no result rows");
  }
  or_usage_error([&] { cli::open_run_outputs(args_); });
  std::cerr << "[bench] compute threads: " << util::global_threads() << "\n";
}

int BenchEnv::get_int(const std::string& flag, int fallback) const {
  return or_usage_error([&] { return args_.get_int(flag, fallback); });
}

std::size_t BenchEnv::get_count(const std::string& flag, std::size_t fallback) const {
  return or_usage_error([&] { return args_.get_count(flag, fallback); });
}

double BenchEnv::get_double(const std::string& flag, double fallback) const {
  return or_usage_error([&] { return args_.get_double(flag, fallback); });
}

void BenchEnv::add_row(util::Json row) {
  if (args_.has("json-out")) {
    rows_.push_back(std::move(row));
  }
}

BenchEnv::~BenchEnv() {
  // The destructor must not throw, and a failed write must not turn a
  // passing figure into a failing one: each failure is one stderr line.
  try {
    cli::finish_run_outputs(args_);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
  }
  if (!args_.has("json-out")) {
    return;
  }
  try {
    const std::string dir = args_.get("json-out");
    std::filesystem::create_directories(dir);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    util::Json doc = util::Json::object();
    doc["figure"] = figure_;
    doc["threads"] = util::global_threads();
    doc["host_wall_s"] = wall_s;
    doc["rows"] = std::move(rows_);
    const std::string path = dir + "/BENCH_" + figure_ + ".json";
    doc.dump_file(path);
    std::cerr << "[bench] wrote " << path << "\n";
  } catch (const std::exception& e) {
    std::cerr << "[bench] failed to write BENCH json: " << e.what() << "\n";
  }
}

}  // namespace acclaim::benchharness
