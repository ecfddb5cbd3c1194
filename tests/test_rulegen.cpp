// Tests for rule generation (Fig. 9), the JSON config format, and the
// runtime selection engine.
#include <gtest/gtest.h>

#include "core/evaluator.hpp"
#include "core/rulegen.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace {

using namespace acclaim;
using bench::BenchmarkPoint;
using bench::Scenario;
using coll::Algorithm;
using coll::Collective;
using core::BucketKey;
using core::kRuleMax;
using core::RuleTable;
using core::SelectionRule;

RuleTable tiny_table() {
  RuleTable t(Collective::Bcast);
  t.set_bucket(BucketKey{4, 2},
               {{1024, Algorithm::BcastBinomial},
                {kRuleMax, Algorithm::BcastScatterRingAllgather}});
  t.set_bucket(BucketKey{16, 8}, {{kRuleMax, Algorithm::BcastBinomial}});
  return t;
}

TEST(RuleTable, LookupWalksThresholds) {
  const RuleTable t = tiny_table();
  EXPECT_EQ(t.lookup({Collective::Bcast, 4, 2, 512}), Algorithm::BcastBinomial);
  EXPECT_EQ(t.lookup({Collective::Bcast, 4, 2, 1024}), Algorithm::BcastBinomial);
  EXPECT_EQ(t.lookup({Collective::Bcast, 4, 2, 1025}), Algorithm::BcastScatterRingAllgather);
}

TEST(RuleTable, LookupFallsBackToNearestBucket) {
  const RuleTable t = tiny_table();
  // (8, 4) is log-equidistant; either bucket is acceptable, but (32, 8) is
  // clearly closest to (16, 8).
  EXPECT_EQ(t.lookup({Collective::Bcast, 32, 8, 1 << 20}), Algorithm::BcastBinomial);
  EXPECT_EQ(t.lookup({Collective::Bcast, 2, 2, 1 << 20}),
            Algorithm::BcastScatterRingAllgather);
}

// Regression: lookup picks the nearest bucket by log2 distance, which is
// inf or NaN at a scale below 1, so no bucket won and it dereferenced
// end(): `acclaim select --nodes 0` crashed.
TEST(RuleTable, LookupRejectsAScenarioBelowOneNodeOrRank) {
  const RuleTable t = tiny_table();
  for (const Scenario& s : {Scenario{Collective::Bcast, 0, 2, 64},
                            Scenario{Collective::Bcast, -4, 2, 64},
                            Scenario{Collective::Bcast, 4, 0, 64}}) {
    try {
      t.lookup(s);
      ADD_FAILURE() << s.to_string() << " was looked up";
    } catch (const InvalidArgument& e) {
      EXPECT_STREQ(e.what(), "rule lookup needs nnodes >= 1 and ppn >= 1");
    }
  }
}

// The same crash from the file side: a rules file whose only bucket sits at
// nnodes 0 or -2 loaded, and every lookup against it crashed.
TEST(SelectionEngine, RejectsARuleBucketBelowOneNodeOrRank) {
  for (const char* scale : {R"("nnodes": 0, "ppn": 4)", R"("nnodes": -2, "ppn": 4)",
                            R"("nnodes": 4, "ppn": 0)"}) {
    const std::string doc = std::string(R"({"format": "acclaim-coll-tuning-v1",
        "collectives": {"bcast": [{)") + scale + R"(, "rules": [{"algorithm": "binomial"}]}]}})";
    try {
      core::SelectionEngine::from_json(util::Json::parse(doc));
      ADD_FAILURE() << scale << " loaded";
    } catch (const InvalidArgument& e) {
      EXPECT_STREQ(e.what(), "rule bucket needs nnodes >= 1 and ppn >= 1");
    }
  }
}

TEST(RuleTable, ValidateCatchesIncompleteAndUnprunedSets) {
  RuleTable incomplete(Collective::Bcast);
  incomplete.set_bucket(BucketKey{4, 2}, {{1024, Algorithm::BcastBinomial}});
  EXPECT_THROW(incomplete.validate(), InvalidArgument);

  RuleTable unpruned(Collective::Bcast);
  unpruned.set_bucket(BucketKey{4, 2}, {{1024, Algorithm::BcastBinomial},
                                        {kRuleMax, Algorithm::BcastBinomial}});
  EXPECT_THROW(unpruned.validate(), InvalidArgument);

  RuleTable unordered(Collective::Bcast);
  unordered.set_bucket(BucketKey{4, 2},
                       {{2048, Algorithm::BcastBinomial},
                        {1024, Algorithm::BcastScatterRingAllgather},
                        {kRuleMax, Algorithm::BcastBinomial}});
  EXPECT_THROW(unordered.validate(), InvalidArgument);

  RuleTable wrong_coll(Collective::Bcast);
  wrong_coll.set_bucket(BucketKey{4, 2}, {{kRuleMax, Algorithm::AllgatherRing}});
  EXPECT_THROW(wrong_coll.validate(), InvalidArgument);

  EXPECT_NO_THROW(tiny_table().validate());
}

class RuleGenTest : public testing::Test {
 protected:
  RuleGenTest()
      : ds_(testing_support::small_dataset()), space_(testing_support::small_space()) {
    std::vector<core::LabeledPoint> data;
    for (const BenchmarkPoint& p : ds_.points(Collective::Bcast)) {
      data.push_back({p, ds_.at(p).mean_us});
    }
    model_ = core::CollectiveModel(Collective::Bcast);
    model_.fit(data, 3);
  }
  const bench::Dataset& ds_;
  core::FeatureSpace space_;
  core::CollectiveModel model_;
};

TEST_F(RuleGenTest, GeneratedTableIsCompleteAndPruned) {
  core::RuleGeneratorStats stats;
  const RuleTable table = core::RuleGenerator().generate(model_, space_, &stats);
  EXPECT_NO_THROW(table.validate());
  EXPECT_EQ(stats.buckets,
            static_cast<int>(space_.nodes().size() * space_.ppns().size()));
  EXPECT_GT(stats.rules, 0);
}

TEST_F(RuleGenTest, RulesAgreeWithModelOnGridPoints) {
  const RuleTable table = core::RuleGenerator().generate(model_, space_);
  for (const Scenario& s : space_.scenarios(Collective::Bcast)) {
    EXPECT_EQ(table.lookup(s), model_.select(s)) << s.to_string();
  }
}

TEST_F(RuleGenTest, MidpointQueriesPreserveNonP2Selections) {
  core::RuleGeneratorStats stats;
  const RuleTable table = core::RuleGenerator().generate(model_, space_, &stats);
  // Wherever the model changes its mind between adjacent P2 sizes, the
  // midpoint must have been queried and the rule between A and C must match
  // the model's selection at B (Fig. 9 semantics).
  int transitions = 0;
  for (int nnodes : space_.nodes()) {
    for (int ppn : space_.ppns()) {
      const auto& msgs = space_.msgs();
      for (std::size_t i = 1; i < msgs.size(); ++i) {
        const Scenario a{Collective::Bcast, nnodes, ppn, msgs[i - 1]};
        const Scenario c{Collective::Bcast, nnodes, ppn, msgs[i]};
        if (model_.select(a) != model_.select(c)) {
          ++transitions;
          const std::uint64_t bmsg = msgs[i - 1] + (msgs[i] - msgs[i - 1]) / 2;
          const Scenario b{Collective::Bcast, nnodes, ppn, bmsg};
          EXPECT_EQ(table.lookup(b), model_.select(b)) << b.to_string();
        }
      }
    }
  }
  EXPECT_GT(transitions, 0);  // the dataset must exercise the midpoint logic
  EXPECT_EQ(stats.midpoint_queries, transitions);
}

TEST_F(RuleGenTest, JsonRoundTripPreservesSelections) {
  const RuleTable table = core::RuleGenerator().generate(model_, space_);
  const util::Json doc = core::rules_to_json({table});
  EXPECT_EQ(doc.at("format").as_string(), "acclaim-coll-tuning-v1");
  const auto back = core::rules_from_json(doc);
  ASSERT_EQ(back.size(), 1u);
  for (const Scenario& s : space_.scenarios(Collective::Bcast)) {
    EXPECT_EQ(back[0].lookup(s), table.lookup(s));
  }
  // Serialized form parses after a text round trip too.
  const auto reparsed = core::rules_from_json(util::Json::parse(doc.dump(2)));
  EXPECT_EQ(reparsed[0].lookup({Collective::Bcast, 4, 2, 999}),
            table.lookup({Collective::Bcast, 4, 2, 999}));
}

TEST_F(RuleGenTest, SelectionEngineSelectsAndReportsCoverage) {
  const RuleTable table = core::RuleGenerator().generate(model_, space_);
  const core::SelectionEngine engine = core::SelectionEngine::from_json(
      core::rules_to_json({table}));
  EXPECT_TRUE(engine.covers(Collective::Bcast));
  EXPECT_FALSE(engine.covers(Collective::Reduce));
  EXPECT_EQ(engine.select({Collective::Bcast, 4, 2, 256}),
            table.lookup({Collective::Bcast, 4, 2, 256}));
  EXPECT_THROW(engine.select({Collective::Reduce, 4, 2, 256}), NotFoundError);
}

TEST_F(RuleGenTest, EngineSelectionsAreNearOptimal) {
  // End to end: model -> rules -> JSON -> engine; the engine's selections
  // should inherit the model's quality.
  const RuleTable table = core::RuleGenerator().generate(model_, space_);
  const core::SelectionEngine engine = core::SelectionEngine::from_json(
      core::rules_to_json({table}));
  const core::Evaluator ev(ds_);
  const auto test = space_.scenarios(Collective::Bcast);
  const double slow = ev.average_slowdown(
      test, [&](const Scenario& s) { return engine.select(s); });
  EXPECT_LT(slow, 1.05);
}

TEST(SelectionEngine, RejectsMalformedDocuments) {
  EXPECT_THROW(core::rules_from_json(util::Json::parse("{\"format\": \"bogus\"}")),
               InvalidArgument);
  EXPECT_THROW(core::SelectionEngine::from_json(util::Json::parse(
                   R"({"format": "acclaim-coll-tuning-v1",
                       "collectives": {"bcast": [{"nnodes": 4, "ppn": 2,
                         "rules": [{"msg_size_le": 64, "algorithm": "binomial"}]}]}})")),
               InvalidArgument);  // incomplete rule set
}

}  // namespace
