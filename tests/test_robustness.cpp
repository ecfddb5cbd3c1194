// Robustness tests: malformed external inputs (JSON documents, dataset
// CSVs, config files) must raise typed errors, never crash or silently
// mis-parse. Includes a light mutation fuzz over the JSON parser.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "benchdata/dataset.hpp"
#include "core/active_learner.hpp"
#include "core/rulegen.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace {

using namespace acclaim;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(JsonFuzz, MutatedDocumentsThrowOrParseButNeverCrash) {
  const std::string base = R"({"format": "acclaim-coll-tuning-v1",
    "collectives": {"bcast": [{"nnodes": 8, "ppn": 16, "rules": [
      {"msg_size_le": 8192, "algorithm": "binomial"},
      {"algorithm": "scatter_ring_allgather"}]}]}})";
  util::Rng rng(2024);
  int parsed = 0;
  int rejected = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = base;
    const int edits = 1 + static_cast<int>(rng.uniform_int(0, 3));
    for (int e = 0; e < edits; ++e) {
      const std::size_t pos = rng.index(mutated.size());
      switch (rng.uniform_int(0, 2)) {
        case 0: mutated[pos] = static_cast<char>(rng.uniform_int(32, 126)); break;
        case 1: mutated.erase(pos, 1); break;
        default: mutated.insert(pos, 1, static_cast<char>(rng.uniform_int(32, 126)));
      }
    }
    try {
      const util::Json doc = util::Json::parse(mutated);
      // If it still parses, downstream consumption must also either work or
      // throw a typed error.
      try {
        core::rules_from_json(doc);
        // A typed rejection of fuzzed input is a pass.
      } catch (const Error&) {
      }
      ++parsed;
      // Counted and asserted on below.
    } catch (const Error&) {
      ++rejected;
    }
  }
  EXPECT_EQ(parsed + rejected, 500);
  EXPECT_GT(rejected, 100);  // most single-character mutations break JSON
}

TEST(DatasetRobustness, MissingColumnsAndGarbageRowsThrow) {
  const std::string path = temp_path("acclaim_bad_dataset.csv");
  {
    std::ofstream out(path);
    out << "collective,algorithm,nnodes\nbcast,binomial,4\n";
  }
  EXPECT_THROW(bench::Dataset::load(path), NotFoundError);  // missing columns
  {
    std::ofstream out(path);
    out << "collective,algorithm,nnodes,ppn,msg_bytes,mean_us,stddev_us,iterations,"
           "collect_cost_s\n"
        << "alltoallw,binomial,4,2,64,10,1,100,2\n";  // unknown collective
  }
  EXPECT_THROW(bench::Dataset::load(path), InvalidArgument);
  {
    std::ofstream out(path);
    out << "collective,algorithm,nnodes,ppn,msg_bytes,mean_us,stddev_us,iterations,"
           "collect_cost_s\n"
        << "bcast,ring,4,2,64,10,1,100,2\n";  // bcast has no "ring"
  }
  EXPECT_THROW(bench::Dataset::load(path), NotFoundError);
  std::remove(path.c_str());
}

TEST(ConfigRobustness, SelectionEngineFromFileErrors) {
  EXPECT_THROW(core::SelectionEngine::from_file("/nonexistent/rules.json"), IoError);
  const std::string path = temp_path("acclaim_bad_rules.json");
  {
    std::ofstream out(path);
    out << "{\"format\": \"acclaim-coll-tuning-v1\", \"collectives\": {\"bcast\": "
           "[{\"nnodes\": 4, \"ppn\": 2, \"rules\": []}]}}";
  }
  EXPECT_THROW(core::SelectionEngine::from_file(path), InvalidArgument);  // empty bucket
  std::remove(path.c_str());
}

TEST(LearnerRobustness, MinPointsDelaysConvergence) {
  const bench::Dataset& ds = testing_support::small_dataset();
  const core::FeatureSpace space = testing_support::small_space();
  core::DatasetEnvironment env(ds);
  core::AcclaimAcquisition policy;
  core::ActiveLearnerConfig cfg;
  cfg.forest.n_trees = 30;
  cfg.seed = 2;
  // Absurdly loose criterion: it would fire immediately without the floor.
  cfg.variance_rel_tol = 10.0;
  cfg.patience = 1;
  cfg.min_points = 40;
  core::ActiveLearner learner(coll::Collective::Reduce, space, env, policy, cfg);
  const auto result = learner.run();
  EXPECT_TRUE(result.converged);
  EXPECT_GE(result.collected.size(), 40u);
}

TEST(LearnerRobustness, RejectsNonsenseConfigs) {
  const bench::Dataset& ds = testing_support::small_dataset();
  const core::FeatureSpace space = testing_support::small_space();
  core::DatasetEnvironment env(ds);
  core::AcclaimAcquisition policy;
  core::ActiveLearnerConfig cfg;
  // A cap is -1 (the whole pool) or at least one point.
  for (const int max_points : {0, -3}) {
    cfg.max_points = max_points;
    EXPECT_THROW(core::ActiveLearner(coll::Collective::Bcast, space, env, policy, cfg),
                 InvalidArgument)
        << "max_points=" << max_points;
  }
  cfg.max_points = -1;
  cfg.refit_every = 0;
  EXPECT_THROW(core::ActiveLearner(coll::Collective::Bcast, space, env, policy, cfg),
               InvalidArgument);
  cfg.refit_every = 1;
  cfg.patience = 0;
  EXPECT_THROW(core::ActiveLearner(coll::Collective::Bcast, space, env, policy, cfg),
               InvalidArgument);
}

TEST(EnvironmentRobustness, DatasetEnvironmentRejectsUnknownPoints) {
  const bench::Dataset& ds = testing_support::small_dataset();
  core::DatasetEnvironment env(ds);
  const bench::BenchmarkPoint missing{{coll::Collective::Bcast, 999, 1, 64},
                                      coll::Algorithm::BcastBinomial};
  EXPECT_THROW(env.measure(missing), NotFoundError);
  // The clock must not advance on a failed measurement.
  EXPECT_DOUBLE_EQ(env.clock_s(), 0.0);
}

}  // namespace
