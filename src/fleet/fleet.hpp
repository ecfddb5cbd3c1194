// Fleet-scale trace replay with warm-start model transfer (ROADMAP
// "fleet-scale trace replay").
//
// The serving story so far tunes each job in isolation. A production
// machine, however, sees a *stream* of jobs, and most of them look like a
// job the daemon has already tuned: same application family, a nearby
// scale, the same topology. This module replays such a stream — thousands
// of synthetic jobs drawn from the Fig. 4 application mix — through the
// full tune pipeline against a shared serve::ModelStore:
//
//  * every finished job publishes its per-collective models (plus the
//    labeled points behind them) under (collective, comm size, topology);
//  * every arriving job asks the store for the nearest previously tuned
//    model (ModelStore::nearest) and, when one is close enough, seeds its
//    ActiveLearner from it (core::WarmStart) — active learning then only
//    patches the disagreement region, so the convergence floor drops from
//    ActiveLearnerConfig::min_points to core::kWarmMinNewPoints;
//  * models become visible only at the *simulated completion time* of the
//    job that trained them, so transfer hits depend on the arrival pattern
//    exactly as they would on a real machine.
//
// Determinism contract: replay_fleet() is bitwise-deterministic for a given
// (config, empty store) across any --threads setting. The job loop is
// strictly serial — parallelism lives inside each pipeline run, which is
// itself deterministic by the golden-fingerprint contract — and every
// stochastic choice draws from util::Rng streams derived from config seeds.
// FleetResult::fingerprint condenses the whole replay into one hash the
// determinism tests and the fleet bench compare across thread counts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/pipeline.hpp"
#include "serve/model_store.hpp"
#include "simnet/machine.hpp"
#include "traces/traces.hpp"

namespace acclaim::fleet {

struct FleetConfig {
  /// The shared machine all jobs run on; its name is the ModelKey topology
  /// signature. Must fit the largest node choice in `stream`.
  simnet::MachineConfig machine;
  /// Job mix and arrival pattern.
  traces::JobStreamSpec stream;
  /// Per-job learner configuration (benches shrink forests/caps here).
  core::ActiveLearnerConfig learner;
  /// Rule generation. The fleet turns the default guard on: its per-job
  /// models are deliberately small, and at fleet scale giving back a few
  /// percent on near-tie cells costs more than the guard's conservatism.
  core::RuleGeneratorConfig rulegen{.default_guard_margin = 0.20};

  /// Master switch: false replays the identical stream cold (the bench's
  /// baseline arm).
  bool warm_start = true;
  /// ModelStore::nearest cutoff. The default admits any same-topology donor
  /// (max |log2 scale| delta on this machine class) but rejects
  /// cross-topology transfer (+16).
  double max_transfer_distance = 8.0;

  /// Each job tunes its app's top-k collectives by mix weight. Its training
  /// message range comes from its application's trace spec, clamped to
  /// JobSpec's default range; the machine is JobSpec's default busy fraction.
  int collectives_per_job = 2;

  /// Calls sampled from the app's trace to price the tuned-vs-default
  /// speedup (see JobOutcome::speedup).
  std::size_t trace_calls = 256;
};

/// Everything the replay decided about one job; the unit the fingerprint
/// and the bench rows are built from.
struct JobOutcome {
  std::uint64_t job_id = 0;
  std::string app;
  int nnodes = 0;
  int ppn = 0;
  double arrival_s = 0.0;
  /// Simulated collection time this job spent training.
  double training_s = 0.0;
  /// Freshly measured points across the job's collectives.
  std::size_t points = 0;
  /// Collectives that trained from a transferred model.
  int warm_collectives = 0;
  int total_collectives = 0;
  /// Mean ModelStore::nearest distance over the warm collectives; -1 when
  /// the job trained fully cold.
  double transfer_distance = -1.0;
  /// App speedup of the tuned selection over the MPICH default, priced on
  /// the job's own trace (deterministic cost-model pricing, no noise).
  double speedup = 1.0;
  /// Fig. 15 break-even runtime for this job's training cost at `speedup`;
  /// -1 when the speedup never amortizes (<= 1).
  double breakeven_s = -1.0;
  double completion_s = 0.0;  ///< arrival_s + training_s
};

struct FleetTotals {
  std::size_t jobs = 0;
  std::size_t warm_jobs = 0;  ///< jobs with at least one transferred collective
  std::size_t points = 0;
  double training_s = 0.0;
  double mean_speedup = 0.0;
  /// Mean break-even runtime over jobs whose speedup amortizes at all, and
  /// how many do — the fleet-wide Fig. 15 extension.
  double mean_breakeven_s = 0.0;
  std::size_t amortizing_jobs = 0;
  /// Mean transfer distance over warm jobs (-1 when none).
  double mean_transfer_distance = -1.0;
  /// Completion time of the last job (simulated replay makespan).
  double makespan_s = 0.0;
};

struct FleetResult {
  std::vector<JobOutcome> jobs;
  FleetTotals totals;
  /// FNV-1a over the exact bit patterns of every per-job outcome — equal
  /// fingerprints mean bitwise-identical replays.
  std::string fingerprint;
};

/// Replays the configured job stream against `store`. The store is usually
/// empty (the replay populates it) but may carry pre-published models —
/// arriving jobs will transfer from them like from any fleet publication.
/// Throws InvalidArgument on an inconsistent config.
FleetResult replay_fleet(const FleetConfig& config, serve::ModelStore& store);

}  // namespace acclaim::fleet
