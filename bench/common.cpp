#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <utility>

#include "telemetry/audit.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
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
  // ACCLAIM_TRACE=file.jsonl streams telemetry events from any figure
  // harness without a rebuild. First banner() wins; tracing stays off (a
  // single relaxed load per instrument site) when the variable is unset.
  static const bool traced = [] {
    const char* path = std::getenv("ACCLAIM_TRACE");
    if (path != nullptr && *path != '\0') {
      telemetry::tracer().open_stream(path);
      std::cerr << "[telemetry] streaming trace to " << path << "\n";
      return true;
    }
    return false;
  }();
  (void)traced;
  std::cout << "==============================================================\n"
            << figure << "\n"
            << claim << "\n"
            << "==============================================================\n";
}

BenchEnv::BenchEnv(int& argc, char** argv, std::string figure)
    : figure_(std::move(figure)), start_(std::chrono::steady_clock::now()) {
  int threads = 0;
  int out = 1;  // argv[0] always survives
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--threads" && has_value) {
      const std::string value = argv[++i];
      const std::optional<int> n = util::parse_thread_count(value);
      if (!n) {
        std::cerr << "error: flag '--threads' expects an integer in [1, " << util::kMaxThreads
                  << "], got '" << value << "'\n";
        std::exit(2);
      }
      threads = *n;
    } else if (arg == "--metrics-out" && has_value) {
      metrics_out_ = argv[++i];
    } else if (arg == "--audit-out" && has_value) {
      audit_out_ = argv[++i];
    } else if (arg == "--json-out" && has_value) {
      json_out_dir_ = argv[++i];
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;
  if (!json_out_dir_.empty() && figure_.empty()) {
    std::cerr << "error: flag '--json-out' is not supported: this bench writes no result rows\n";
    std::exit(2);
  }
  if (threads > 0) {
    util::set_global_threads(threads);
  }
  if (!audit_out_.empty()) {
    telemetry::audit().open_stream(audit_out_);
    std::cerr << "[bench] streaming audit log to " << audit_out_ << "\n";
  }
  std::cerr << "[bench] compute threads: " << util::global_threads() << "\n";
}

void BenchEnv::add_row(util::Json row) {
  if (json_out_dir_.empty()) {
    return;
  }
  rows_.push_back(std::move(row));
}

BenchEnv::~BenchEnv() {
  if (!audit_out_.empty()) {
    const std::size_t n = telemetry::audit().recorded();
    telemetry::audit().disable();  // flushes and closes the stream
    std::cerr << "[bench] wrote audit log to " << audit_out_ << " (" << n << " decisions)\n";
  }
  if (!metrics_out_.empty()) {
    telemetry::publish_thread_pool_metrics();
    try {
      telemetry::metrics().dump_file(metrics_out_);
      std::cerr << "[telemetry] wrote metrics to " << metrics_out_ << "\n";
      // The destructor must not throw; the stderr note below is the
      // handling (AC_LOG is not wired in bench).
    } catch (const Error& e) {
      std::cerr << "[telemetry] failed to write " << metrics_out_ << ": " << e.what() << "\n";
    }
  }
  if (json_out_dir_.empty()) {
    return;
  }
  // Never let artifact writing turn a passing figure into a failing one —
  // report and continue (the destructor also must not throw).
  try {
    std::filesystem::create_directories(json_out_dir_);
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
    util::Json doc = util::Json::object();
    doc["figure"] = figure_;
    doc["threads"] = util::global_threads();
    doc["host_wall_s"] = wall_s;
    doc["rows"] = std::move(rows_);
    const std::string path = json_out_dir_ + "/BENCH_" + figure_ + ".json";
    doc.dump_file(path);
    std::cerr << "[bench] wrote " << path << "\n";
    // The destructor must not throw; the stderr note below is the
    // handling.
  } catch (const std::exception& e) {
    std::cerr << "[bench] failed to write BENCH json: " << e.what() << "\n";
  }
}

}  // namespace acclaim::benchharness
