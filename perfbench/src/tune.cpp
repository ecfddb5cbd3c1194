// tune: one production tuning job (Fig. 1(b)) on the theta-like machine,
// 32 nodes x 16 ppn, the paper's four collectives, cold learner.
//
// The learner's convergence floor and cap are both kPoints and the job gets
// an unfragmented allocation, so every seed does the same number of
// single-point iterations. kPoints is the median number of points a
// converging job of this shape collects per collective (see README.md).
// Left to converge on its own, the job's host time varied 1.7x between
// seeds (7.5 s vs 12.8 s at one thread), which no bound on wall_s could
// absorb. The seed still picks the network realization and the measurement
// noise, and so which points are taken.
#include <iostream>
#include <optional>

#include "collectives/types.hpp"
#include "core/pipeline.hpp"
#include "core/rulegen.hpp"
#include "harness.hpp"
#include "regret.hpp"
#include "simnet/machine.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace acclaim;

namespace {

constexpr int kPoints = 234;

struct TuneInputs {
  simnet::MachineConfig machine;
  core::JobSpec spec;
  core::ActiveLearnerConfig learner;
};

TuneInputs make_inputs(const Options& opts) {
  TuneInputs in;
  in.machine = simnet::theta_like();
  in.spec.collectives = coll::paper_collectives();
  in.spec.nnodes = opts.tiny ? 4 : 32;
  in.spec.ppn = opts.tiny ? 4 : 16;
  in.spec.job_seed = util::Rng(opts.seed ^ 0x7475'6e65ULL).next_u64();
  in.spec.machine_busy_fraction = 0.0;
  in.learner.forest.n_trees = opts.tiny ? 10 : 50;
  in.learner.min_points = opts.tiny ? 12 : kPoints;
  in.learner.max_points = in.learner.min_points;
  return in;
}

std::string fingerprint(const core::PipelineResult& r) {
  return hex64(fnv1a_double(r.total_training_s, fnv1a(r.config.dump())));
}

core::FeatureSpace job_space(const core::JobSpec& spec) {
  return core::FeatureSpace::from_grid(
      bench::FeatureGrid::p2(spec.nnodes, spec.ppn, spec.min_msg, spec.max_msg));
}

}  // namespace

Result run_tune(const Options& opts) {
  Result r;
  const TuneInputs in = make_inputs(opts);

  // Set-up: the pipeline, which builds the machine topology. Each job runs
  // on the pipeline the set-up sample before it built.
  std::optional<core::AcclaimPipeline> pipeline;
  const auto set_up = [&] { pipeline.emplace(in.machine, in.learner); };

  core::PipelineResult result;
  const Phase phase = run_phase(opts.seconds, [&] { pipeline.reset(); }, set_up, [&](int rep) {
    const auto t0 = Clock::now();
    core::PipelineResult res = pipeline->run(in.spec);
    const double wall = seconds_since(t0);
    if (rep == 0) {
      result = std::move(res);
    } else if (fingerprint(res) != fingerprint(result)) {
      r.fail("tune repetition " + std::to_string(rep) + " changed the job's output");
    }
    return wall;
  });
  add_phase_metrics(r, phase);
  const std::vector<double>& walls = phase.unit_s;
  const std::uint64_t reps = walls.size();
  r.fingerprint = fingerprint(result);
  std::cout << "tune: " << reps << " jobs of " << in.spec.collectives.size()
            << " collectives, " << in.learner.max_points << " points each;";
  for (const core::CollectiveTrainingSummary& t : result.training) {
    std::cout << " " << coll::collective_name(t.collective) << " " << t.iterations
              << " iterations (largest batch " << t.max_batch << ")";
  }
  std::cout << "\nsimulated training: " << result.total_training_s << " s\n";

  // Checks: the rule document loads and covers every tuned collective.
  r.attempted = reps * in.spec.collectives.size();
  std::optional<core::SelectionEngine> engine;
  try {
    engine.emplace(core::SelectionEngine::from_json(result.config));
  } catch (const std::exception& e) {
    r.fail(std::string("rule document does not load: ") + e.what());
    r.failed = r.attempted;
  }
  if (engine) {
    for (coll::Collective c : in.spec.collectives) {
      if (!engine->covers(c)) {
        r.fail(std::string("rules do not cover ") + coll::collective_name(c));
        r.failed += reps;
      }
    }
  }

  // Oracle regret of the rules over the job's feature space.
  std::optional<double> regret_pct;
  if (engine && r.failed == 0) {
    const auto t0 = Clock::now();
    OraclePricer pricer(pipeline->topology(), in.spec.job_seed);
    util::Rng rng(opts.seed ^ 0x7265'6772ULL);
    for (coll::Collective c : in.spec.collectives) {
      for (const bench::Scenario& s : regret_space(c, in.spec.nnodes, in.spec.ppn,
                                                   in.spec.min_msg, in.spec.max_msg, rng)) {
        pricer.add(s, engine->select(s), result.allocation);
      }
    }
    std::cout << pricer.summary() << ", priced in " << seconds_since(t0) << " s\n";
    regret_pct = pricer.tuned_pct();
  }

  if (!opts.trace) {
    return r;
  }
  // Traced run: one more job with the registry read around it, then the
  // rule generation replayed on the job's own models.
  SpanLog spans;
  RegistryDelta d;
  d.before = RegistrySnapshot::take();
  const int root = spans.open("pipeline.run", 0);
  const core::PipelineResult traced = pipeline->run(in.spec);
  spans.close(root);
  d.after = RegistrySnapshot::take();
  r.traced_fingerprint = fingerprint(traced);

  const core::FeatureSpace space = job_space(in.spec);
  std::vector<core::RuleTable> tables;
  const int rulegen = spans.open("rulegen.generate", 0);
  for (const core::TrainedCollective& t : traced.trained) {
    tables.push_back(core::RuleGenerator().generate(t.model, space));
  }
  spans.close(rulegen);
  if (core::rules_to_json(tables).dump() != traced.config.dump()) {
    r.fail("rule generation replayed on the trained models differs from the job's rules");
  }

  spans.add_child_time(root, report_learning_layers(r, d) + spans.duration(rulegen));
  r.add_layer("core.rulegen_s", spans.duration(rulegen), "s");
  r.add_layer("core.self_s", spans.self_time(root), "s");
  layer_or_absent(r, "quality.regret_pct", regret_pct, "%");
  r.add_layer("quality.sim_training_s", result.total_training_s, "sim_s");
  r.add_layer("trace_overhead_pct", 100.0 * (spans.duration(root) / median(walls) - 1.0), "%");
  if (!spans.write(opts.span_out)) {
    std::cerr << "perfbench: cannot write spans to " << opts.span_out << "\n";
  }
  return r;
}

}  // namespace perfbench
