// OSU-style microbenchmark harness over the simulated machine.
//
// Stands in for the OSU micro-benchmark suite the paper runs on Theta (§V):
// a job step is launched on a node subset, the collective is warmed up, then
// timed for a message-size-dependent iteration count. The per-point
// `collect_cost_s` (launch + warmup + timed iterations) is exactly the
// quantity the paper's training-time figures accumulate.
#pragma once

#include "benchdata/point.hpp"
#include "minimpi/cost_executor.hpp"
#include "simnet/allocation.hpp"
#include "simnet/network.hpp"
#include "util/rng.hpp"

namespace acclaim::bench {

/// Job-step launch overhead: base + per-rank cost (aprun/srun startup).
inline constexpr double kLaunchBaseS = 1.5;
inline constexpr double kLaunchPerRankS = 0.002;

/// Timed iterations for a message size, given the expected single-iteration
/// latency: the OSU tiers (1000 up to 8 KiB, 100 up to 512 KiB, 20 above),
/// shrunk (down to 5) so no point's timed portion runs past 2 s. Tuning
/// harnesses bound per-point cost exactly this way; without the cap one
/// 2048-rank 1-MiB allgather point can eat a minute of the job.
int timed_iterations(std::uint64_t msg_bytes, double expected_us);

/// Runs benchmark points against a network model. Stateless; callers pass
/// the allocation slice the benchmark runs on and an Rng stream for the
/// measurement noise.
class Microbenchmark {
 public:
  explicit Microbenchmark(const simnet::NetworkModel& net);

  /// Measures `point` on the first `point.scenario.nnodes` nodes of `alloc`
  /// (which must be at least that large).
  Measurement run(const BenchmarkPoint& point, const simnet::Allocation& alloc,
                  util::Rng& rng) const;

  /// As `run`, but with extra concurrent flows on the given racks/pairs from
  /// co-scheduled benchmarks (used by the parallel-collection experiments;
  /// congestion inflates the *measured* latency, which is the §III-D hazard).
  Measurement run_with_load(const BenchmarkPoint& point, const simnet::Allocation& alloc,
                            const minimpi::FlowMap& rack_flows,
                            const minimpi::FlowMap& pair_flows, util::Rng& rng) const;

  /// Deterministic single-execution time of the schedule (no noise, no
  /// launch overhead) in microseconds — the model-truth latency.
  double schedule_time_us(const BenchmarkPoint& point, const simnet::Allocation& alloc) const;

 private:
  const simnet::NetworkModel& net_;
};

}  // namespace acclaim::bench
