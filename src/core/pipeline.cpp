#include "core/pipeline.hpp"

#include <algorithm>

#include "core/acquisition.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace acclaim::core {

AcclaimPipeline::AcclaimPipeline(simnet::MachineConfig machine, ActiveLearnerConfig learner,
                                 RuleGeneratorConfig rulegen)
    : topo_(std::move(machine)), learner_(learner), rulegen_(rulegen) {}

PipelineResult AcclaimPipeline::run(const JobSpec& spec) const { return run(spec, {}); }

PipelineResult AcclaimPipeline::run(const JobSpec& spec, const WarmStartMap& warm) const {
  telemetry::ScopedTimer timer("pipeline.run");
  require(!spec.collectives.empty(), "job must name at least one collective to tune");
  require(spec.nnodes >= 2 && spec.ppn >= 1, "job needs at least 2 nodes and 1 ppn");
  require(spec.min_msg >= 1 && spec.min_msg <= spec.max_msg, "bad message-size range");

  // Best-effort allocation on the (partially busy) machine.
  simnet::JobScheduler sched(topo_, spec.machine_busy_fraction,
                             util::Rng(spec.job_seed * 0x9e3779b97f4a7c15ULL + 1));
  const simnet::Allocation alloc = sched.allocate(spec.nnodes);

  // P2 training axes bounded by the job (the model must cover everything
  // the application may invoke inside this allocation).
  std::vector<int> nodes;
  for (int n = 2; n <= spec.nnodes; n *= 2) {
    nodes.push_back(n);
  }
  std::vector<int> ppns;
  for (int p = 1; p <= spec.ppn; p *= 2) {
    ppns.push_back(p);
  }
  std::vector<std::uint64_t> msgs;
  for (std::uint64_t m = spec.min_msg; m <= spec.max_msg; m *= 2) {
    msgs.push_back(m);
  }
  const FeatureSpace space(nodes, ppns, msgs);

  LiveEnvironment env(topo_, alloc, spec.job_seed);

  PipelineResult result;
  result.allocation = alloc;
  result.job_seed = spec.job_seed;
  std::vector<RuleTable> tables;
  for (coll::Collective c : spec.collectives) {
    AcclaimAcquisition policy;
    ActiveLearnerConfig cfg = learner_;
    cfg.seed = spec.job_seed ^ (static_cast<std::uint64_t>(c) + 0x51ULL);
    ActiveLearner learner(c, space, env, policy, cfg);
    if (const auto it = warm.find(c); it != warm.end()) {
      learner.set_warm_start(it->second);
    }
    telemetry::ScopedTimer coll_timer(coll::collective_name(c));
    telemetry::ScopedPhase phase(std::string("train:") + coll::collective_name(c));
    const double before_s = env.clock_s();
    TrainingResult tr = learner.run();

    CollectiveTrainingSummary summary;
    summary.collective = c;
    summary.points = tr.collected.size();
    summary.iterations = tr.iterations;
    summary.train_time_s = env.clock_s() - before_s;
    summary.converged = tr.converged;
    summary.warm_started = tr.warm_started;
    for (const IterationRecord& rec : tr.history) {
      summary.max_batch = std::max(summary.max_batch, rec.batch_size);
    }
    result.training.push_back(summary);
    result.trained.push_back(TrainedCollective{tr.model, std::move(tr.collected)});
    // The report's phase-timing table runs on the simulated collection
    // clock (the quantity the paper's Fig. 14/15 amortization argument is
    // about), so attach it alongside the wall time ScopedPhase records.
    phase.annotate("sim_s", summary.train_time_s);
    phase.annotate("threads", util::global_threads());
    phase.annotate("points", summary.points);
    phase.annotate("iterations", summary.iterations);
    phase.annotate("converged", summary.converged);
    phase.annotate("max_batch", summary.max_batch);

    const RuleGenerator gen(rulegen_);
    tables.push_back(gen.generate(tr.model, space));
  }
  result.total_training_s = env.clock_s();
  result.config = rules_to_json(tables);
  static telemetry::Counter& jobs = telemetry::metrics().counter("pipeline.jobs");
  static telemetry::Gauge& sim_total = telemetry::metrics().gauge("pipeline.sim_training_s");
  jobs.add();
  sim_total.add(result.total_training_s);
  AC_LOG_INFO() << "pipeline: trained " << spec.collectives.size() << " collectives in "
                << result.total_training_s << " s (simulated collection time)";
  return result;
}

}  // namespace acclaim::core
