// fleet: warm-start replay of a Fig. 4 job stream on the bebop-like
// machine against a shared ModelStore, with the warm arm of the
// fleet_replay bench (50-tree forests, 90-point cap, 128 trace calls).
//
// The stream is the same for every seed: fleet_replay's default (seed 7).
// Between stream seeds the replay's work moved by 15-20% (IQR over median of
// the host time, five seeds), more than any bound on wall_s allows; one
// stream of kJobs jobs already spans the nine job shapes and the Fig. 4
// application mix. The seed changes nothing here; the fleet prices no
// oracle regret (a job's models are trained on its application's message
// range only, so pricing them elsewhere would measure extrapolation).
#include <cmath>
#include <iostream>
#include <optional>
#include <utility>

#include "core/pipeline.hpp"
#include "fleet/fleet.hpp"
#include "harness.hpp"
#include "serve/model_store.hpp"
#include "simnet/machine.hpp"

namespace perfbench {

using namespace acclaim;

namespace {

constexpr int kJobs = 20;
constexpr std::uint64_t kStreamSeed = 7;

fleet::FleetConfig make_config(bool tiny) {
  fleet::FleetConfig config;
  config.machine = simnet::bebop_like();
  config.stream.n_jobs = tiny ? 3 : kJobs;
  config.stream.mean_interarrival_s = 45.0;
  config.stream.node_choices = {4, 8, 16};
  config.stream.ppn_choices = {2, 4, 8};
  config.stream.seed = kStreamSeed;
  config.learner.forest.n_trees = tiny ? 10 : 50;
  config.learner.max_points = 90;
  config.trace_calls = 128;
  config.warm_start = true;
  return config;
}

bool job_ok(const fleet::JobOutcome& j) {
  return j.total_collectives > 0 && j.points > 0 && j.training_s > 0.0 &&
         std::isfinite(j.speedup) && j.speedup > 0.0;
}

}  // namespace

Result run_fleet(const Options& opts) {
  Result r;
  const fleet::FleetConfig config = make_config(opts.tiny);

  // Set-up: the shared store, and a pipeline for the machine, which builds
  // its topology. Each replay runs on the store the set-up sample before it
  // built. replay_fleet takes only the store and builds its own pipeline
  // from the same config, so the topology build is timed beside the entry
  // point, not handed to it.
  std::optional<serve::ModelStore> store;
  const auto set_up = [&] {
    store.emplace();
    const core::AcclaimPipeline pipeline(config.machine, config.learner, config.rulegen);
  };

  fleet::FleetResult result;
  const Phase phase = run_phase(opts.seconds, [&] { store.reset(); }, set_up, [&](int rep) {
    const auto t0 = Clock::now();
    fleet::FleetResult res = fleet::replay_fleet(config, *store);
    const double wall = seconds_since(t0);
    r.attempted += res.jobs.size();
    for (const fleet::JobOutcome& j : res.jobs) {
      r.failed += job_ok(j) ? 0 : 1;
    }
    if (rep == 0) {
      result = std::move(res);
    } else if (res.fingerprint != result.fingerprint) {
      r.fail("fleet repetition " + std::to_string(rep) + " changed the replay fingerprint");
    }
    return wall;
  });
  add_phase_metrics(r, phase);
  const std::vector<double>& walls = phase.unit_s;
  r.fingerprint = result.fingerprint;
  std::cout << "fleet: " << walls.size() << " replays of " << result.jobs.size() << " jobs, "
            << result.totals.warm_jobs << " warm, " << result.totals.points
            << " points, simulated training " << result.totals.training_s << " s\n";

  if (!opts.trace) {
    return r;
  }
  SpanLog spans;
  RegistryDelta d;
  store.emplace();
  d.before = RegistrySnapshot::take();
  const int root = spans.open("fleet.replay", 0);
  const fleet::FleetResult traced = fleet::replay_fleet(config, *store);
  spans.close(root);
  d.after = RegistrySnapshot::take();
  r.traced_fingerprint = traced.fingerprint;

  spans.add_child_time(root, report_learning_layers(r, d));
  r.add_layer("fleet.self_s", spans.self_time(root), "s");
  r.add_layer("fleet.warm_ratio",
              static_cast<double>(traced.totals.warm_jobs) /
                  static_cast<double>(std::max<std::size_t>(1, traced.totals.jobs)),
              "ratio");
  r.add_layer("fleet.points", static_cast<double>(traced.totals.points), "count");
  r.add_layer("quality.sim_training_s", result.totals.training_s, "sim_s");
  r.add_layer("trace_overhead_pct", 100.0 * (spans.duration(root) / median(walls) - 1.0), "%");
  if (!spans.write(opts.span_out)) {
    std::cerr << "perfbench: cannot write spans to " << opts.span_out << "\n";
  }
  return r;
}

}  // namespace perfbench
