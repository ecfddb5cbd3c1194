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

struct MicrobenchConfig {
  /// Job-step launch overhead: base + per-rank cost (aprun/srun startup).
  double launch_base_s = 1.5;
  double launch_per_rank_s = 0.002;
  /// Iteration counts by message size (OSU defaults shrink for large sizes).
  int iters_small = 1000;   ///< msg <= 8 KiB
  int iters_medium = 100;   ///< msg <= 512 KiB
  int iters_large = 20;     ///< larger
  double warmup_fraction = 0.2;
  /// Multiplicative measurement noise per timed iteration (lognormal sigma).
  double noise_sigma = 0.03;
  /// Cap on the timed portion of one point: iteration counts shrink (down
  /// to min_iterations) so no single point runs longer than this. Tuning
  /// harnesses bound per-point cost exactly this way; without it one
  /// 2048-rank 1-MiB allgather point can eat a minute of the job.
  double max_timed_seconds = 2.0;
  int min_iterations = 5;

  /// Iterations for a message size, given the expected single-iteration
  /// latency (used to apply the time cap).
  int timed_iterations(std::uint64_t msg_bytes, double expected_us) const;
};

/// Runs benchmark points against a network model. Stateless apart from
/// configuration; callers pass the allocation slice the benchmark runs on
/// and an Rng stream for the measurement noise.
class Microbenchmark {
 public:
  Microbenchmark(const simnet::NetworkModel& net, MicrobenchConfig config = {});

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

  const MicrobenchConfig& config() const noexcept { return config_; }

 private:
  const simnet::NetworkModel& net_;
  MicrobenchConfig config_;
};

}  // namespace acclaim::bench
