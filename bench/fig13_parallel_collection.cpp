// Fig. 13 — Topology-aware parallel data collection. Paper: scheduling
// benchmarks on disjoint racks accelerates collection by 1-1.4x, running 1-4
// benchmarks in parallel, across four placement topologies (single rack,
// single rack pair, two pairs, and "max parallel" = one node per rack, all
// racks in distinct pairs).
//
// --naive additionally runs the rack-sharing ablation scheduler: it packs
// more benchmarks per batch but co-located runs interfere, inflating the
// *measured* latencies — the §III-D hazard the greedy algorithm avoids.
#include <cstring>
#include <iostream>

#include "common.hpp"
#include "core/scheduler.hpp"
#include "util/csv.hpp"
#include "util/units.hpp"

using namespace acclaim;
using benchharness::bebop_dataset;

namespace {

/// Machine with enough rack pairs for a 64-node "max parallel" placement.
simnet::MachineConfig fig13_machine() {
  simnet::MachineConfig m = simnet::theta_like();
  m.total_nodes = 138 * 64;  // 138 racks of 64 -> 69 pairs
  m.validate();
  return m;
}

struct Replay {
  double sequential_s = 0.0;
  double parallel_s = 0.0;
  double avg_parallelism = 0.0;
  double measurement_inflation = 1.0;  ///< measured/solo latency ratio
};

Replay replay(const std::vector<bench::BenchmarkPoint>& points, const simnet::Topology& topo,
              const simnet::Allocation& alloc, bool topology_aware) {
  // Sequential baseline.
  core::LiveEnvironment seq_env(topo, alloc, 11);
  std::vector<double> solo_us;
  for (const auto& p : points) {
    solo_us.push_back(seq_env.measure(p).mean_us);
  }
  Replay r;
  r.sequential_s = seq_env.clock_s();

  // Parallel batches in the same priority order.
  core::LiveEnvironment par_env(topo, alloc, 11);
  const core::CollectionScheduler sched(core::CollectionSchedulerConfig{topology_aware});
  std::vector<bench::BenchmarkPoint> pool = points;
  std::vector<double> inflation;
  int batches = 0;
  std::size_t done = 0;
  while (!pool.empty()) {
    std::size_t next = 0;
    const core::CollectionBatch batch =
        sched.plan(pool, pool.size(), [&] { return next++; }, topo, alloc);
    if (batch.items.empty()) {
      break;  // top point does not fit this placement at all
    }
    const auto ms = par_env.measure_scheduled(batch.items);
    for (std::size_t i = 0; i < ms.size(); ++i) {
      inflation.push_back(ms[i].mean_us / solo_us[done + i]);
    }
    done += ms.size();
    ++batches;
    std::vector<std::size_t> consumed = batch.consumed;
    std::sort(consumed.rbegin(), consumed.rend());
    for (std::size_t idx : consumed) {
      pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(idx));
    }
  }
  r.parallel_s = par_env.clock_s();
  r.avg_parallelism = batches ? static_cast<double>(done) / batches : 0.0;
  double infl = 0.0;
  for (double v : inflation) {
    infl += v;
  }
  r.measurement_inflation = inflation.empty() ? 1.0 : infl / static_cast<double>(inflation.size());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  benchharness::BenchEnv bench_env(argc, argv);
  const bool naive = argc > 1 && std::strcmp(argv[1], "--naive") == 0;
  benchharness::banner(
      "Fig. 13: parallel data collection across placement topologies",
      naive ? "Ablation: naive rack-sharing scheduler (expect inflated measurements)"
            : "Expectation: 1-1.4x speedup, 1-4 benchmarks in parallel");

  const simnet::MachineConfig machine = fig13_machine();
  const simnet::Topology topo(machine);

  // The workload: the first 60 points an ACCLAiM run would collect, per
  // collective, in priority order (from the precollected-dataset trace).
  const core::Evaluator ev(bebop_dataset());
  util::TablePrinter table({"collective", "placement", "sequential", "parallel", "speedup",
                            "avg parallel", "meas. inflation"});
  util::CsvWriter csv(benchharness::results_path(naive ? "fig13_naive" : "fig13"));
  csv.header({"collective", "placement", "sequential_s", "parallel_s", "speedup",
              "avg_parallelism", "measurement_inflation"});
  const std::vector<std::string> placements = {"single-rack", "single-pair", "two-pairs",
                                               "max-parallel"};
  for (coll::Collective c : coll::paper_collectives()) {
    core::DatasetEnvironment denv(bebop_dataset());
    core::AcclaimAcquisition policy;
    core::TraceConfig tcfg;
    tcfg.forest = benchharness::bench_forest();
    tcfg.refit_every = 10;
    tcfg.max_points = 60;
    tcfg.seed = 5;
    const core::AcquisitionTrace trace =
        core::trace_acquisition(c, benchharness::bebop_space(), denv, policy, tcfg);
    std::vector<bench::BenchmarkPoint> points;
    for (const auto& step : trace.steps) {
      points.push_back(step.point.point);
    }

    for (const std::string& placement : placements) {
      const simnet::Allocation alloc = simnet::fig13_placement(topo, placement, 64);
      const Replay r = replay(points, topo, alloc, /*topology_aware=*/!naive);
      const double speedup = r.parallel_s > 0 ? r.sequential_s / r.parallel_s : 1.0;
      table.add_row({coll::collective_name(c), placement,
                     util::format_seconds(r.sequential_s), util::format_seconds(r.parallel_s),
                     util::fixed(speedup, 2) + "x", util::fixed(r.avg_parallelism, 2),
                     util::fixed(r.measurement_inflation, 3)});
      csv.row({coll::collective_name(c), placement, util::format_double(r.sequential_s),
               util::format_double(r.parallel_s), util::format_double(speedup),
               util::format_double(r.avg_parallelism),
               util::format_double(r.measurement_inflation)});
    }
  }
  table.print(std::cout);
  if (naive) {
    std::cout << "\n(rack-sharing inflates measured latencies; inflation >> 1 corrupts the\n"
                 " training data, which is why the greedy forbids shared racks)\n";
  } else {
    std::cout << "\n(paper: 1-1.4x speedups; single-rack exposes no parallelism and max-parallel\n"
                 " the most; measurement inflation stays ~1.0 because racks are disjoint)\n";
  }
  return 0;
}
