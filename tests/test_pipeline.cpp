// Integration tests: the full ACCLAiM pipeline (train -> rules -> engine ->
// application) on a small simulated machine.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/evaluator.hpp"
#include "core/heuristic.hpp"
#include "core/pipeline.hpp"
#include "platform/app_model.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/report.hpp"
#include "telemetry/trace.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace {

using namespace acclaim;
using bench::Scenario;
using coll::Collective;

core::ActiveLearnerConfig fast_learner() {
  core::ActiveLearnerConfig cfg;
  cfg.forest.n_trees = 40;
  cfg.max_points = 120;
  return cfg;
}

/// The pipeline run plus the telemetry it emitted — the run happens once,
/// with the tracer's and the audit log's in-memory rings active, so the
/// telemetry tests see exactly the events of the run the functional tests
/// assert on.
struct PipelineArtifacts {
  core::PipelineResult result;
  std::vector<telemetry::TraceEvent> trace;
  std::vector<telemetry::DecisionRecord> audit;
  std::uint64_t picks = 0;  ///< acquisition.picks increments during the run
};

class PipelineTest : public testing::Test {
 public:
  static const PipelineArtifacts& artifacts() {
    static const PipelineArtifacts a = [] {
      telemetry::tracer().enable_ring(1 << 16);
      telemetry::audit().enable_ring(1 << 16);
      const telemetry::Counter& picks = telemetry::metrics().counter("acquisition.picks");
      const std::uint64_t picks_before = picks.value();
      core::AcclaimPipeline pipeline(testing_support::small_machine(), fast_learner());
      core::JobSpec spec;
      spec.collectives = {Collective::Bcast, Collective::Allreduce};
      spec.nnodes = 8;
      spec.ppn = 4;
      spec.min_msg = 64;
      spec.max_msg = 64 * 1024;
      spec.job_seed = 5;
      spec.machine_busy_fraction = 0.2;
      PipelineArtifacts out{pipeline.run(spec), {}, {}, 0};
      out.trace = telemetry::tracer().ring_snapshot();
      out.audit = telemetry::audit().ring_snapshot();
      out.picks = picks.value() - picks_before;
      telemetry::tracer().disable();
      telemetry::audit().disable();
      return out;
    }();
    return a;
  }

  static const core::PipelineResult& result() { return artifacts().result; }
};

TEST_F(PipelineTest, TrainsEveryRequestedCollective) {
  const auto& r = result();
  ASSERT_EQ(r.training.size(), 2u);
  for (const auto& t : r.training) {
    EXPECT_GT(t.points, 0u);
    EXPECT_GT(t.train_time_s, 0.0);
  }
  EXPECT_NEAR(r.total_training_s, r.training[0].train_time_s + r.training[1].train_time_s,
              1e-6);
  EXPECT_EQ(r.allocation.num_nodes(), 8);
}

TEST_F(PipelineTest, UsesParallelCollection) {
  int max_batch = 1;
  for (const auto& t : result().training) {
    max_batch = std::max(max_batch, t.max_batch);
  }
  EXPECT_GT(max_batch, 1);
}

TEST_F(PipelineTest, EmitsAndCountsEachCollectedPointOnce) {
  // On a run that batches, every collected point is one point_acquired
  // event, one Acquisition record and one acquisition.picks increment.
  std::size_t points = 0;
  int max_batch = 1;
  for (const auto& t : result().training) {
    points += t.points;
    max_batch = std::max(max_batch, t.max_batch);
  }
  ASSERT_GT(max_batch, 1);
  const auto& trace = artifacts().trace;
  const auto& audit = artifacts().audit;
  const auto events = std::count_if(trace.begin(), trace.end(), [](const auto& ev) {
    return ev.kind == telemetry::EventKind::PointAcquired;
  });
  const auto records = std::count_if(audit.begin(), audit.end(), [](const auto& rec) {
    return rec.kind == telemetry::DecisionKind::Acquisition;
  });
  EXPECT_EQ(static_cast<std::size_t>(events), points);
  EXPECT_EQ(static_cast<std::size_t>(records), points);
  EXPECT_EQ(artifacts().picks, points);
}

TEST_F(PipelineTest, RecordsOnePhaseEventPerCollective) {
  std::vector<telemetry::TraceEvent> phases;
  for (const telemetry::TraceEvent& ev : artifacts().trace) {
    if (ev.kind == telemetry::EventKind::Phase) {
      phases.push_back(ev);
    }
  }
  const auto& training = result().training;
  ASSERT_EQ(phases.size(), training.size());
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const telemetry::TraceEvent& ev = phases[i];
    const core::CollectiveTrainingSummary& t = training[i];
    EXPECT_EQ(ev.label, std::string("train:") + coll::collective_name(t.collective));
    EXPECT_GE(ev.fields.at("wall_ms").as_number(), 0.0);
    EXPECT_DOUBLE_EQ(ev.fields.at("sim_s").as_number(), t.train_time_s);
    EXPECT_EQ(ev.fields.at("points").as_int(), static_cast<std::int64_t>(t.points));
    EXPECT_EQ(ev.fields.at("iterations").as_int(), t.iterations);
    EXPECT_EQ(ev.fields.at("converged").as_bool(), t.converged);
    EXPECT_EQ(ev.fields.at("max_batch").as_int(), t.max_batch);
    EXPECT_GE(ev.fields.at("threads").as_int(), 1);
  }
}

TEST_F(PipelineTest, ProducesValidConfigDocument) {
  const auto& r = result();
  // The document parses, covers exactly the requested collectives, and
  // validates (complete + pruned).
  const auto tables = core::rules_from_json(r.config);
  ASSERT_EQ(tables.size(), 2u);
  const core::SelectionEngine engine = r.engine();
  EXPECT_TRUE(engine.covers(Collective::Bcast));
  EXPECT_TRUE(engine.covers(Collective::Allreduce));
  EXPECT_FALSE(engine.covers(Collective::Reduce));
  // Any scenario inside the tuned ranges resolves.
  EXPECT_NO_THROW(engine.select({Collective::Bcast, 8, 4, 777}));
  EXPECT_NO_THROW(engine.select({Collective::Allreduce, 2, 1, 64 * 1024}));
}

TEST_F(PipelineTest, TunedEngineBeatsDefaultHeuristicOnThisJob) {
  const auto& r = result();
  const core::SelectionEngine engine = r.engine();
  // Ground truth for this job's network: a fresh exhaustive collection with
  // the same job seed and allocation.
  const simnet::Topology topo(testing_support::small_machine());
  bench::FeatureGrid grid = bench::FeatureGrid::p2(8, 4, 64, 64 * 1024);
  core::LiveEnvironment env(topo, r.allocation, r.job_seed);
  bench::Dataset truth;
  for (Collective c : {Collective::Bcast, Collective::Allreduce}) {
    for (const auto& p : grid.points(c)) {
      truth.add(p, env.measure(p));
    }
  }
  const core::Evaluator ev(truth);
  double tuned_total = 0.0;
  double heuristic_total = 0.0;
  for (Collective c : {Collective::Bcast, Collective::Allreduce}) {
    const auto test = grid.scenarios(c);
    const double tuned =
        ev.average_slowdown(test, [&](const Scenario& s) { return engine.select(s); });
    tuned_total += tuned;
    heuristic_total += ev.average_slowdown(test, core::mpich_default_selection);
    // The trained engine must be near-optimal on its own job regardless of
    // how lucky the static defaults got on this network realization.
    EXPECT_LT(tuned, 1.10) << coll::collective_name(c);
  }
  // And never meaningfully worse than the defaults.
  EXPECT_LT(tuned_total, heuristic_total + 0.08);
}

TEST_F(PipelineTest, EmitsTrainingIterationsForEveryCollective) {
  const telemetry::RunReport report = telemetry::build_report(artifacts().trace);
  // At least one training_iteration event per trained collective, with a
  // variance trajectory the report can render.
  ASSERT_EQ(report.trajectories.size(), 2u);
  EXPECT_GE(report.trajectories.at("bcast").size(), 1u);
  EXPECT_GE(report.trajectories.at("allreduce").size(), 1u);
  EXPECT_GT(report.benchmark_runs, 0u);
  EXPECT_GT(report.model_refits, 0u);
  EXPECT_GT(report.points_acquired, 0u);
}

TEST_F(PipelineTest, PhaseSimTimesSumToTotalTraining) {
  const telemetry::RunReport report = telemetry::build_report(artifacts().trace);
  // One phase per collective; their simulated durations are exactly the
  // per-collective training times, so the sum must match the pipeline's
  // total (well inside the 5% acceptance bound).
  ASSERT_EQ(report.phases.size(), 2u);
  for (const auto& p : report.phases) {
    EXPECT_TRUE(p.has_outcome) << p.label;
    EXPECT_GT(p.sim_s, 0.0) << p.label;
    EXPECT_GE(p.wall_ms, 0.0) << p.label;
  }
  const double total = result().total_training_s;
  EXPECT_NEAR(report.total_sim_s, total, 0.05 * total);
}

TEST(Pipeline, RejectsBadJobSpecs) {
  core::AcclaimPipeline pipeline(testing_support::small_machine(), fast_learner());
  core::JobSpec spec;
  spec.collectives = {};
  EXPECT_THROW(pipeline.run(spec), InvalidArgument);
  spec.collectives = {Collective::Bcast};
  spec.nnodes = 1;
  EXPECT_THROW(pipeline.run(spec), InvalidArgument);
  spec.nnodes = 1024;  // larger than the machine
  EXPECT_THROW(pipeline.run(spec), InvalidArgument);
}

TEST(Pipeline, BreakEvenIsHoursForSmallSpeedups) {
  // Fig. 14 + Fig. 15 logic: training minutes => break-even hours at 1.01x.
  const auto& r = PipelineTest::result();
  const double breakeven_h =
      platform::breakeven_runtime_s(r.total_training_s, 1.01) / 3600.0;
  EXPECT_GT(breakeven_h, 0.1);
  EXPECT_LT(breakeven_h, 48.0);
}

}  // namespace
