// Decision flight recorder: DecisionRecord JSONL round-trips, AuditLog
// ring/stream lifecycle, explain aggregation/rendering, and the audited
// selection/acquisition paths in core.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "benchdata/point.hpp"
#include "collectives/types.hpp"
#include "core/acquisition.hpp"
#include "core/env.hpp"
#include "core/feature_space.hpp"
#include "core/model.hpp"
#include "core/rulegen.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/metrics.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace acclaim;
using telemetry::DecisionKind;
using telemetry::DecisionRecord;

// The audit log is process-wide; every case starts disabled (which also
// resets the sequence counter) so ordering cannot leak across cases.
class AuditTest : public testing::Test {
 protected:
  void SetUp() override {
    telemetry::audit().disable();
    telemetry::metrics().reset();
  }
  void TearDown() override { telemetry::audit().disable(); }
};

std::string temp_path(const std::string& name) { return testing::TempDir() + name; }

DecisionRecord sample_selection() {
  DecisionRecord rec;
  rec.kind = DecisionKind::Selection;
  rec.source = "model";
  rec.collective = "bcast";
  rec.nnodes = 8;
  rec.ppn = 16;
  rec.msg_bytes = 4096;
  rec.features = {3.0, 4.0, 12.0, 1.0, 0.0};
  rec.scores = {{"binomial", 2.25, 30}, {"scatter_allgather", 2.5, 20}};
  rec.chosen = "binomial";
  rec.runner_up = "scatter_allgather";
  rec.margin = 0.28;
  rec.variance = 0.0125;
  rec.tree_evals = 100;
  return rec;
}

DecisionRecord sample_acquisition(std::int64_t round) {
  DecisionRecord rec;
  rec.kind = DecisionKind::Acquisition;
  rec.source = "policy";
  rec.collective = "allreduce";
  rec.nnodes = 4;
  rec.ppn = 8;
  rec.msg_bytes = 1024;
  rec.chosen = "recursive_doubling";
  rec.runner_up = "ring";
  rec.margin = 0.4;
  rec.variance = 0.08;
  rec.acq_score = 0.08;
  rec.pool_size = 96;
  rec.round = round;
  rec.nonp2 = (round % 4) == 0;
  rec.tree_evals = 4800;
  return rec;
}

TEST_F(AuditTest, SelectionRecordJsonRoundTrip) {
  const DecisionRecord rec = sample_selection();
  const DecisionRecord back = DecisionRecord::from_json(rec.to_json());
  EXPECT_EQ(back.kind, rec.kind);
  EXPECT_EQ(back.source, rec.source);
  EXPECT_EQ(back.collective, rec.collective);
  EXPECT_EQ(back.nnodes, rec.nnodes);
  EXPECT_EQ(back.ppn, rec.ppn);
  EXPECT_EQ(back.msg_bytes, rec.msg_bytes);
  EXPECT_EQ(back.features, rec.features);
  EXPECT_EQ(back.scores, rec.scores);
  EXPECT_EQ(back.chosen, rec.chosen);
  EXPECT_EQ(back.runner_up, rec.runner_up);
  EXPECT_DOUBLE_EQ(back.margin, rec.margin);
  EXPECT_DOUBLE_EQ(back.variance, rec.variance);
  EXPECT_EQ(back.tree_evals, rec.tree_evals);
}

TEST_F(AuditTest, AcquisitionRecordJsonRoundTrip) {
  const DecisionRecord rec = sample_acquisition(12);
  const DecisionRecord back = DecisionRecord::from_json(rec.to_json());
  EXPECT_EQ(back.kind, DecisionKind::Acquisition);
  EXPECT_DOUBLE_EQ(back.acq_score, rec.acq_score);
  EXPECT_EQ(back.pool_size, rec.pool_size);
  EXPECT_EQ(back.round, rec.round);
  EXPECT_EQ(back.nonp2, rec.nonp2);
  EXPECT_EQ(back.tree_evals, rec.tree_evals);
}

TEST_F(AuditTest, RecordJsonCarriesNoWallClockFields) {
  // The determinism contract: nothing time-derived may enter the record
  // (wall cost goes to the metrics registry instead).
  const std::string line = sample_acquisition(3).to_json().dump();
  EXPECT_EQ(line.find("wall"), std::string::npos) << line;
  EXPECT_EQ(line.find("_ms"), std::string::npos) << line;
  EXPECT_EQ(line.find("_ns"), std::string::npos) << line;
  EXPECT_EQ(line.find("time"), std::string::npos) << line;
}

TEST_F(AuditTest, FromJsonRejectsUnknownKind) {
  util::Json doc = sample_selection().to_json();
  doc["kind"] = "coin_flip";
  EXPECT_THROW(DecisionRecord::from_json(doc), InvalidArgument);
}

TEST_F(AuditTest, DisabledByDefaultAndRecordIsDropped) {
  EXPECT_FALSE(telemetry::audit().enabled());
  telemetry::audit().record(sample_selection());
  EXPECT_EQ(telemetry::audit().recorded(), 0u);
  EXPECT_TRUE(telemetry::audit().ring_snapshot().empty());
}

TEST_F(AuditTest, RingKeepsMostRecentAndCountsDrops) {
  telemetry::audit().enable_ring(3);
  for (int i = 0; i < 5; ++i) {
    telemetry::audit().record(sample_acquisition(i));
  }
  EXPECT_EQ(telemetry::audit().recorded(), 5u);
  EXPECT_EQ(telemetry::audit().ring_dropped(), 2u);
  const std::vector<DecisionRecord> ring = telemetry::audit().ring_snapshot();
  ASSERT_EQ(ring.size(), 3u);
  // Oldest first; seq assigned by the log in record order.
  EXPECT_EQ(ring[0].seq, 2u);
  EXPECT_EQ(ring[1].seq, 3u);
  EXPECT_EQ(ring[2].seq, 4u);
}

TEST_F(AuditTest, DisableResetsSequenceForReproducibleRuns) {
  telemetry::audit().enable_ring(8);
  telemetry::audit().record(sample_selection());
  telemetry::audit().record(sample_selection());
  EXPECT_EQ(telemetry::audit().recorded(), 2u);
  telemetry::audit().disable();
  telemetry::audit().enable_ring(8);
  telemetry::audit().record(sample_selection());
  EXPECT_EQ(telemetry::audit().ring_snapshot().front().seq, 0u);
}

TEST_F(AuditTest, StreamWritesJsonLinesAndReadsBack) {
  const std::string path = temp_path("audit_roundtrip.jsonl");
  telemetry::audit().open_stream(path);
  telemetry::audit().record(sample_selection());
  telemetry::audit().record(sample_acquisition(1));
  telemetry::audit().close_stream();
  // close_stream with no ring drops back to disabled.
  EXPECT_FALSE(telemetry::audit().enabled());

  const std::vector<DecisionRecord> back = telemetry::read_audit_file(path);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].seq, 0u);
  EXPECT_EQ(back[0].kind, DecisionKind::Selection);
  EXPECT_EQ(back[1].seq, 1u);
  EXPECT_EQ(back[1].kind, DecisionKind::Acquisition);
  EXPECT_EQ(back[1].round, 1);
}

TEST_F(AuditTest, ReadAuditFileErrors) {
  EXPECT_THROW(telemetry::read_audit_file(temp_path("no_such_audit.jsonl")), IoError);

  const std::string path = temp_path("audit_malformed.jsonl");
  {
    std::ofstream out(path, std::ios::trunc);
    out << sample_selection().to_json().dump() << "\n";
    out << "{not json\n";
  }
  try {
    telemetry::read_audit_file(path);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    // The error names the file and the 1-based line of the bad record.
    EXPECT_NE(std::string(e.what()).find(":2:"), std::string::npos) << e.what();
  }
}

TEST_F(AuditTest, ObserveDecisionCostFeedsMetricsNotRecords) {
  telemetry::observe_decision_cost(1500.0);
  telemetry::observe_decision_cost(2500.0);
  EXPECT_EQ(telemetry::metrics().counter("audit.records").value(), 2u);
  EXPECT_EQ(telemetry::metrics().histogram("audit.decision_wall_ns").count(), 2u);
}

TEST_F(AuditTest, BuildExplainSplitsKindsAndCountsFlips) {
  std::vector<DecisionRecord> records;
  // Same scenario selected three times: A, B, B -> one flip at seq 1.
  for (int i = 0; i < 3; ++i) {
    DecisionRecord rec = sample_selection();
    rec.seq = static_cast<std::uint64_t>(i);
    rec.chosen = i == 0 ? "binomial" : "scatter_allgather";
    records.push_back(rec);
  }
  records.push_back(sample_acquisition(1));

  const telemetry::ExplainReport report = telemetry::build_explain(records);
  EXPECT_EQ(report.selections.size(), 3u);
  EXPECT_EQ(report.acquisitions.size(), 1u);
  ASSERT_EQ(report.flips.size(), 1u);
  EXPECT_EQ(report.flips[0].decisions, 3);
  EXPECT_EQ(report.flips[0].flips, 1);
  EXPECT_EQ(report.flips[0].last_flip_seq, 1u);
  EXPECT_EQ(report.flips[0].last_chosen, "scatter_allgather");
}

TEST_F(AuditTest, RenderExplainShowsVotesMarginVarianceAndConvergence) {
  std::vector<DecisionRecord> records;
  DecisionRecord sel = sample_selection();
  sel.seq = 0;
  records.push_back(sel);
  for (int i = 1; i <= 5; ++i) {
    DecisionRecord acq = sample_acquisition(i);
    acq.seq = static_cast<std::uint64_t>(i);
    records.push_back(acq);
  }

  std::ostringstream os;
  telemetry::render_explain(telemetry::build_explain(records), os);
  const std::string text = os.str();
  EXPECT_NE(text.find("=== audit summary ==="), std::string::npos) << text;
  EXPECT_NE(text.find("=== selection decisions"), std::string::npos);
  EXPECT_NE(text.find("binomial *"), std::string::npos);  // chosen marker
  EXPECT_NE(text.find("runner-up: scatter_allgather"), std::string::npos);
  EXPECT_NE(text.find("jackknife variance"), std::string::npos);
  EXPECT_NE(text.find("votes"), std::string::npos);
  EXPECT_NE(text.find("=== acquisition trend: allreduce"), std::string::npos);
  EXPECT_NE(text.find("=== convergence: selection stability ==="), std::string::npos);
  EXPECT_NE(text.find("never flipped"), std::string::npos);
}

// --- audited core paths ----------------------------------------------------

/// Minimal environment for exercising acquisition policies: no measurements
/// are taken in these tests and no non-P2 sizes exist.
class StubEnvironment final : public core::TuningEnvironment {
 public:
  bench::Measurement measure(const bench::BenchmarkPoint&) override { return {}; }
  std::optional<std::uint64_t> nonp2_msg_near(std::uint64_t, util::Rng&) override {
    return std::nullopt;
  }
};

core::CollectiveModel tiny_trained_model(coll::Collective c) {
  std::vector<core::LabeledPoint> data;
  double t = 10.0;
  for (int n : {2, 4}) {
    for (std::uint64_t msg : {64ull, 1024ull}) {
      for (coll::Algorithm a : coll::algorithms_for(c)) {
        data.push_back({bench::BenchmarkPoint{bench::Scenario{c, n, 4, msg}, a}, t});
        t *= 1.17;
      }
    }
  }
  ml::ForestParams params = core::default_forest_params();
  params.n_trees = 12;
  core::CollectiveModel model(c, params);
  model.fit(data, 99);
  return model;
}

TEST_F(AuditTest, ExplainNamesTheSameArgminAsSelect) {
  const core::CollectiveModel model = tiny_trained_model(coll::Collective::Bcast);
  for (std::uint64_t msg : {64ull, 256ull, 1024ull}) {
    const bench::Scenario s{coll::Collective::Bcast, 4, 4, msg};
    const core::SelectionExplanation ex = model.explain(s);
    EXPECT_EQ(ex.chosen, model.select(s)) << "msg=" << msg;
    EXPECT_TRUE(ex.has_runner_up);
    EXPECT_NE(ex.chosen, ex.runner_up);
    EXPECT_GE(ex.margin, 0.0);
    // Every tree votes exactly once.
    int votes = 0;
    for (const auto& c : ex.candidates) {
      votes += c.votes;
    }
    EXPECT_EQ(votes, static_cast<int>(model.n_trees()));
    EXPECT_EQ(ex.tree_evals,
              static_cast<std::int64_t>(model.n_trees() *
                                        coll::algorithms_for(s.collective).size()));
  }
}

TEST_F(AuditTest, RuleGenerationEmitsSelectionRecords) {
  const core::CollectiveModel model = tiny_trained_model(coll::Collective::Bcast);
  const core::FeatureSpace space({2, 4}, {4}, {64, 256, 1024});

  telemetry::audit().enable_ring(1 << 10);
  const core::RuleTable with_audit = core::RuleGenerator().generate(model, space);
  const std::vector<DecisionRecord> ring = telemetry::audit().ring_snapshot();
  telemetry::audit().disable();
  const core::RuleTable without_audit = core::RuleGenerator().generate(model, space);

  // Auditing must not change the generated rules.
  EXPECT_EQ(with_audit.buckets(), without_audit.buckets());
  // One record per P2 grid query at minimum (2 nodes x 1 ppn x 3 msgs).
  EXPECT_GE(ring.size(), 6u);
  for (const DecisionRecord& rec : ring) {
    EXPECT_EQ(rec.kind, DecisionKind::Selection);
    EXPECT_EQ(rec.source, "model");
    EXPECT_EQ(rec.collective, "bcast");
    EXPECT_FALSE(rec.scores.empty());
    EXPECT_FALSE(rec.chosen.empty());
    EXPECT_GT(rec.tree_evals, 0);
  }
}

TEST_F(AuditTest, SelectionEngineEmitsRuleRecords) {
  const core::CollectiveModel model = tiny_trained_model(coll::Collective::Bcast);
  const core::FeatureSpace space({2, 4}, {4}, {64, 256, 1024});
  const core::RuleTable table = core::RuleGenerator().generate(model, space);
  const core::SelectionEngine engine({table});

  telemetry::audit().enable_ring(16);
  const bench::Scenario s{coll::Collective::Bcast, 4, 4, 300};
  const coll::Algorithm alg = engine.select(s);
  const std::vector<DecisionRecord> ring = telemetry::audit().ring_snapshot();
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring[0].source, "rules");
  EXPECT_EQ(ring[0].chosen, coll::algorithm_info(alg).name);
  EXPECT_EQ(ring[0].msg_bytes, 300u);
  EXPECT_TRUE(ring[0].scores.empty());  // rule lookups carry no candidate scores
}

TEST_F(AuditTest, AcquisitionPolicyEmitsRoundRecords) {
  const coll::Collective c = coll::Collective::Bcast;
  const core::CollectiveModel model = tiny_trained_model(c);
  const core::FeatureSpace space({2, 4}, {4}, {64, 1024});
  const std::vector<bench::BenchmarkPoint> pool = space.candidates(c);
  StubEnvironment env;
  core::AcclaimAcquisition policy;
  util::Rng rng(5);

  telemetry::audit().enable_ring(16);
  const auto pick = policy.next(model, pool, env, rng);
  const std::vector<DecisionRecord> ring = telemetry::audit().ring_snapshot();
  ASSERT_EQ(ring.size(), 1u);
  const DecisionRecord& rec = ring[0];
  EXPECT_EQ(rec.kind, DecisionKind::Acquisition);
  EXPECT_EQ(rec.source, "policy");
  EXPECT_EQ(rec.round, 1);
  EXPECT_EQ(rec.pool_size, static_cast<std::int64_t>(pool.size()));
  EXPECT_EQ(rec.chosen, coll::algorithm_info(pick.point.algorithm).name);
  EXPECT_FALSE(rec.runner_up.empty());
  EXPECT_GE(rec.acq_score, 0.0);
  EXPECT_GT(rec.tree_evals, 0);
  // audit.records metric tracks emission cost observations.
  EXPECT_EQ(telemetry::metrics().counter("audit.records").value(), 1u);
}

}  // namespace
