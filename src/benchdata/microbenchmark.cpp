#include "benchdata/microbenchmark.hpp"

#include <algorithm>
#include <cmath>

#include "minimpi/cost_executor.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "util/error.hpp"
#include "util/stats.hpp"

namespace acclaim::bench {

namespace {

// OSU iteration tiers by message size (the suite's defaults shrink for large
// sizes), the time cap on one point's timed portion and its floor.
constexpr int kItersSmall = 1000;  ///< msg <= 8 KiB
constexpr int kItersMedium = 100;  ///< msg <= 512 KiB
constexpr int kItersLarge = 20;
constexpr double kMaxTimedSeconds = 2.0;
constexpr int kMinIterations = 5;
/// Untimed warmup iterations, as a fraction of the timed ones.
constexpr double kWarmupFraction = 0.2;
/// Multiplicative measurement noise per timed iteration (lognormal sigma).
constexpr double kNoiseSigma = 0.03;

double run_schedule_us(const simnet::NetworkModel& net, const BenchmarkPoint& point,
                       const simnet::Allocation& alloc,
                       const minimpi::FlowMap& rack_flows,
                       const minimpi::FlowMap& pair_flows) {
  const Scenario& s = point.scenario;
  acclaim::require(alloc.num_nodes() >= s.nnodes,
                   "allocation too small for benchmark: " + s.to_string());
  const simnet::Allocation sub =
      alloc.num_nodes() == s.nnodes ? alloc : alloc.slice(0, s.nnodes);
  const minimpi::RankMap ranks(sub, s.ppn);
  minimpi::CostExecutor cost(net, ranks);
  cost.set_external_load(rack_flows, pair_flows);
  coll::CollParams p;
  p.nranks = s.nranks();
  p.type_size = 1;  // message size is specified in bytes
  p.count = s.msg_bytes;
  coll::build_schedule(point.algorithm, p, cost);
  return cost.elapsed_us();
}

}  // namespace

int timed_iterations(std::uint64_t msg_bytes, double expected_us) {
  int tier = kItersLarge;
  if (msg_bytes <= 8 * 1024) {
    tier = kItersSmall;
  } else if (msg_bytes <= 512 * 1024) {
    tier = kItersMedium;
  }
  if (expected_us > 0.0) {
    const int by_time = static_cast<int>(kMaxTimedSeconds * 1e6 / expected_us);
    tier = std::min(tier, std::max(kMinIterations, by_time));
  }
  return tier;
}

Microbenchmark::Microbenchmark(const simnet::NetworkModel& net) : net_(net) {}

double Microbenchmark::schedule_time_us(const BenchmarkPoint& point,
                                        const simnet::Allocation& alloc) const {
  return run_schedule_us(net_, point, alloc, {}, {});
}

Measurement Microbenchmark::run(const BenchmarkPoint& point, const simnet::Allocation& alloc,
                                util::Rng& rng) const {
  return run_with_load(point, alloc, {}, {}, rng);
}

Measurement Microbenchmark::run_with_load(const BenchmarkPoint& point,
                                          const simnet::Allocation& alloc,
                                          const minimpi::FlowMap& rack_flows,
                                          const minimpi::FlowMap& pair_flows,
                                          util::Rng& rng) const {
  const telemetry::Span span("microbench.run");
  const double base_us = run_schedule_us(net_, point, alloc, rack_flows, pair_flows);
  const int iters = timed_iterations(point.scenario.msg_bytes, base_us);
  const int warmup = static_cast<int>(std::ceil(kWarmupFraction * iters));

  // The schedule time is deterministic for a fixed network; per-iteration
  // variation is sampled as multiplicative lognormal noise.
  util::RunningStat stat;
  for (int i = 0; i < iters; ++i) {
    stat.add(base_us * rng.lognormal_median(1.0, kNoiseSigma));
  }

  Measurement m;
  m.mean_us = stat.mean();
  m.stddev_us = stat.stddev();
  m.iterations = iters;
  const double run_us = static_cast<double>(warmup + iters) * base_us;
  m.collect_cost_s = kLaunchBaseS + kLaunchPerRankS * point.scenario.nranks() + run_us * 1e-6;
  static telemetry::Counter& runs = telemetry::metrics().counter("simnet.microbench_runs");
  static telemetry::Gauge& modeled = telemetry::metrics().gauge("simnet.modeled_run_us");
  static telemetry::Histogram& latency =
      telemetry::metrics().histogram("simnet.schedule_us", {1.0, 32});
  // Host time spent simulating this point (schedule construction dominates).
  // All instruments are atomic: bench::precollect records from pool workers.
  static telemetry::Histogram& host_wall =
      telemetry::metrics().histogram("simnet.microbench_wall_us", {1.0, 32});
  runs.add();
  modeled.add(run_us);
  latency.observe(base_us);
  host_wall.observe(span.elapsed_us());
  return m;
}

}  // namespace acclaim::bench
