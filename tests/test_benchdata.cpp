// Tests for the microbenchmark harness, feature grids, and datasets.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "benchdata/dataset.hpp"
#include "benchdata/grid.hpp"
#include "benchdata/microbenchmark.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace {

using namespace acclaim;
using bench::BenchmarkPoint;
using bench::FeatureGrid;
using bench::Scenario;

TEST(FeatureGrid, P2AxesAreComplete) {
  const FeatureGrid g = FeatureGrid::p2(64, 32, 8, 1 << 20);
  EXPECT_EQ(g.nodes, (std::vector<int>{2, 4, 8, 16, 32, 64}));
  EXPECT_EQ(g.ppns, (std::vector<int>{1, 2, 4, 8, 16, 32}));
  EXPECT_EQ(g.msgs.size(), 18u);
  EXPECT_EQ(g.msgs.front(), 8u);
  EXPECT_EQ(g.msgs.back(), 1u << 20);
  EXPECT_EQ(g.scenario_count(), 6u * 6u * 18u);
}

TEST(FeatureGrid, P2AxesStopAtTheirBounds) {
  // Each axis ends at its bound: the msg axis at 2^63 (the next doubling
  // would wrap to 0), the int axes at 2^30 (the next would overflow int).
  const FeatureGrid g = FeatureGrid::p2(1 << 30, 1 << 30, 1, std::uint64_t{1} << 63);
  ASSERT_EQ(g.nodes.size(), 30u);
  EXPECT_EQ(g.nodes.back(), 1 << 30);
  ASSERT_EQ(g.ppns.size(), 31u);
  EXPECT_EQ(g.ppns.back(), 1 << 30);
  ASSERT_EQ(g.msgs.size(), 64u);
  EXPECT_EQ(g.msgs.back(), std::uint64_t{1} << 63);
  const FeatureGrid top = FeatureGrid::p2(2, 1, std::uint64_t{1} << 62, std::uint64_t{1} << 63);
  EXPECT_EQ(top.msgs, (std::vector<std::uint64_t>{std::uint64_t{1} << 62, std::uint64_t{1} << 63}));
}

TEST(FeatureGrid, RejectsNonP2Bounds) {
  EXPECT_THROW(FeatureGrid::p2(48, 32, 8, 1 << 20), InvalidArgument);
  EXPECT_THROW(FeatureGrid::p2(64, 32, 8, 3 << 19), InvalidArgument);
}

TEST(FeatureGrid, PointsCrossAlgorithms) {
  const FeatureGrid g = FeatureGrid::p2(4, 2, 64, 128);
  // bcast has 3 algorithms: 2 nodes x 2 ppn x 2 msgs x 3 algs.
  EXPECT_EQ(g.points(coll::Collective::Bcast).size(), 2u * 2u * 2u * 3u);
  EXPECT_EQ(g.points(coll::Collective::Reduce).size(), 2u * 2u * 2u * 2u);
}

TEST(FeatureGrid, RandomNonP2NearStaysInClosestP2Window) {
  util::Rng rng(5);
  for (std::uint64_t anchor : {4ull, 8ull, 1024ull, 1ull << 20}) {
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t v = bench::random_nonp2_near(anchor, rng);
      EXPECT_NE(v, anchor);
      EXPECT_GT(v, anchor * 3 / 4);
      EXPECT_LT(v, anchor * 3 / 2);
      // The closest power of two to v must be the anchor itself.
      const std::uint64_t below = util::floor_power_of_two(v);
      const std::uint64_t above = util::ceil_power_of_two(v);
      const std::uint64_t closest =
          (v - below <= above - v) ? below : above;
      EXPECT_EQ(closest, anchor) << "v=" << v;
    }
  }
  EXPECT_THROW(bench::random_nonp2_near(2, rng), InvalidArgument);
  EXPECT_THROW(bench::random_nonp2_near(12, rng), InvalidArgument);
}

TEST(FeatureGrid, NonP2VariantsContainNoPowersOfTwo) {
  util::Rng rng(6);
  const FeatureGrid g = FeatureGrid::p2(16, 8, 64, 1 << 16).with_nonp2_msgs(rng);
  for (std::uint64_t m : g.msgs) {
    EXPECT_FALSE(util::is_power_of_two(m)) << m;
  }
  util::Rng rng2(7);
  const FeatureGrid n = FeatureGrid::p2(16, 8, 64, 1 << 16).with_nonp2_nodes(rng2);
  for (int v : n.nodes) {
    // Anchors below 4 have no non-P2 neighbour and stay unchanged.
    if (v >= 4) {
      EXPECT_FALSE(util::is_power_of_two(static_cast<std::uint64_t>(v))) << v;
    }
  }
}

class MicrobenchTest : public testing::Test {
 protected:
  MicrobenchTest()
      : topo_(testing_support::small_machine()),
        net_(topo_, 3),
        alloc_({0, 1, 2, 3, 4, 5, 6, 7}) {}
  simnet::Topology topo_;
  simnet::NetworkModel net_;
  simnet::Allocation alloc_;
};

TEST_F(MicrobenchTest, MeasurementTracksScheduleTime) {
  const bench::Microbenchmark mb(net_);
  const BenchmarkPoint p{{coll::Collective::Bcast, 8, 2, 4096}, coll::Algorithm::BcastBinomial};
  util::Rng rng(1);
  const bench::Measurement m = mb.run(p, alloc_, rng);
  const double base = mb.schedule_time_us(p, alloc_);
  EXPECT_NEAR(m.mean_us, base, 0.02 * base);  // noise is small and unbiased
  EXPECT_GT(m.stddev_us, 0.0);
  EXPECT_EQ(m.iterations, 1000);
}

TEST_F(MicrobenchTest, IterationCountsFollowOsuTiers) {
  EXPECT_EQ(bench::timed_iterations(64, 10.0), 1000);
  EXPECT_EQ(bench::timed_iterations(8 * 1024, 10.0), 1000);
  EXPECT_EQ(bench::timed_iterations(64 * 1024, 100.0), 100);
  EXPECT_EQ(bench::timed_iterations(1 << 20, 1000.0), 20);
}

TEST_F(MicrobenchTest, TimeCapShrinksIterationCounts) {
  // 2 s cap, min 5 iterations.
  // 10 ms per iteration -> 200 iterations fit the cap.
  EXPECT_EQ(bench::timed_iterations(64, 10000.0), 200);
  // 1 s per iteration -> floor at the minimum.
  EXPECT_EQ(bench::timed_iterations(1 << 20, 1e6), 5);
  // Tier caps still apply when time allows more.
  EXPECT_EQ(bench::timed_iterations(1 << 20, 10.0), 20);
}

TEST_F(MicrobenchTest, CollectionCostIncludesLaunchOverhead) {
  const bench::Microbenchmark mb(net_);
  const BenchmarkPoint p{{coll::Collective::Bcast, 8, 2, 64}, coll::Algorithm::BcastBinomial};
  util::Rng rng(1);
  const bench::Measurement m = mb.run(p, alloc_, rng);
  EXPECT_GT(m.collect_cost_s, bench::kLaunchBaseS);
  EXPECT_GT(m.collect_cost_s, bench::kLaunchPerRankS * 16);
}

TEST_F(MicrobenchTest, ExternalLoadInflatesMeasurement) {
  const bench::Microbenchmark mb(net_);
  const BenchmarkPoint p{{coll::Collective::Allgather, 8, 2, 1 << 15},
                         coll::Algorithm::AllgatherRing};
  util::Rng rng1(1);
  util::Rng rng2(1);
  const bench::Measurement calm = mb.run(p, alloc_, rng1);
  minimpi::FlowMap rack_flows;
  for (int r = 0; r < topo_.num_racks(); ++r) {
    rack_flows[r] = 32;
  }
  const bench::Measurement congested = mb.run_with_load(p, alloc_, rack_flows, {}, rng2);
  EXPECT_GT(congested.mean_us, 1.5 * calm.mean_us);
}

TEST_F(MicrobenchTest, RejectsTooSmallAllocation) {
  const bench::Microbenchmark mb(net_);
  const BenchmarkPoint p{{coll::Collective::Bcast, 16, 1, 64}, coll::Algorithm::BcastBinomial};
  util::Rng rng(1);
  EXPECT_THROW(mb.run(p, alloc_, rng), InvalidArgument);
}

TEST(Dataset, OracleFindsBestAlgorithm) {
  const bench::Dataset& ds = testing_support::small_dataset();
  for (const Scenario& s : ds.scenarios(coll::Collective::Bcast)) {
    const coll::Algorithm best = ds.best_algorithm(s);
    const double best_us = ds.best_time_us(s);
    for (coll::Algorithm a : coll::algorithms_for(coll::Collective::Bcast)) {
      EXPECT_LE(best_us, ds.time_us(s, a));
    }
    EXPECT_DOUBLE_EQ(ds.time_us(s, best), best_us);
  }
}

TEST(Dataset, LookupErrorsAreDescriptive) {
  const bench::Dataset& ds = testing_support::small_dataset();
  const BenchmarkPoint missing{{coll::Collective::Bcast, 1024, 1, 64},
                               coll::Algorithm::BcastBinomial};
  EXPECT_FALSE(ds.contains(missing));
  try {
    ds.at(missing);
    FAIL() << "expected NotFoundError";
  } catch (const NotFoundError& e) {
    EXPECT_NE(std::string(e.what()).find("bcast"), std::string::npos);
  }
}

TEST(Dataset, SaveLoadRoundTrip) {
  const bench::Dataset& ds = testing_support::small_dataset();
  const std::string path =
      (std::filesystem::temp_directory_path() / "acclaim_ds_test.csv").string();
  ds.save(path);
  const bench::Dataset back = bench::Dataset::load(path);
  EXPECT_EQ(back.size(), ds.size());
  for (const BenchmarkPoint& p : ds.points()) {
    ASSERT_TRUE(back.contains(p)) << p.to_string();
    EXPECT_NEAR(back.at(p).mean_us, ds.at(p).mean_us, 1e-6 * ds.at(p).mean_us);
    EXPECT_EQ(back.at(p).iterations, ds.at(p).iterations);
  }
  std::remove(path.c_str());
}

TEST(Dataset, LoadRejectsMalformedAndOutOfRangeCells) {
  // Regression: numeric CSV cells went straight through std::stoi/std::stod,
  // so a hand-edited dataset with a garbage cell surfaced as a bare
  // std::invalid_argument with no row context — and a negative node count
  // was accepted silently. Every cell now goes through a checked_* parser
  // with explicit bounds.
  const std::string path =
      (std::filesystem::temp_directory_path() / "acclaim_ds_bad_cells.csv").string();
  const auto write = [&](const std::string& row) {
    std::ofstream out(path, std::ios::trunc);
    out << "collective,algorithm,nnodes,ppn,msg_bytes,mean_us,stddev_us,"
           "iterations,collect_cost_s\n"
        << row;
  };

  write("bcast,binomial,4,1,64,12.5,0.5,5,0.001\n");
  EXPECT_NO_THROW(bench::Dataset::load(path));

  write("bcast,binomial,abc,1,64,12.5,0.5,5,0.001\n");
  EXPECT_THROW(bench::Dataset::load(path), ParseError);

  write("bcast,binomial,-4,1,64,12.5,0.5,5,0.001\n");
  EXPECT_THROW(bench::Dataset::load(path), InvalidArgument);

  // Per-field limits pass but the joint product exceeds the rank cap.
  write("bcast,binomial,4194304,65536,64,12.5,0.5,5,0.001\n");
  EXPECT_THROW(bench::Dataset::load(path), InvalidArgument);

  write("bcast,binomial,4,1,64,not_a_number,0.5,5,0.001\n");
  EXPECT_THROW(bench::Dataset::load(path), ParseError);

  write("bcast,binomial,4,1,64,-1.0,0.5,5,0.001\n");
  EXPECT_THROW(bench::Dataset::load(path), ParseError);

  std::remove(path.c_str());
}

TEST(Dataset, LoadOrCollectCaches) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "acclaim_ds_cache_test.csv").string();
  std::remove(path.c_str());
  const bench::FeatureGrid g = bench::FeatureGrid::p2(4, 2, 64, 256);
  const bench::Dataset first = bench::load_or_collect(path, testing_support::small_machine(), g,
                                                      {coll::Collective::Reduce}, 11);
  ASSERT_TRUE(std::filesystem::exists(path));
  const bench::Dataset second = bench::load_or_collect(path, testing_support::small_machine(), g,
                                                       {coll::Collective::Reduce}, 11);
  EXPECT_EQ(first.size(), second.size());
  std::remove(path.c_str());
}

TEST(Dataset, LoadOrCollectReturnsTheSameValuesOnEveryRun) {
  // Regression: the collecting call returned the in-memory dataset while
  // every later call loaded the rounded file, so a clean checkout's first
  // bench run wrote different figures than every run after it.
  const std::string path =
      (std::filesystem::temp_directory_path() / "acclaim_ds_first_run_test.csv").string();
  std::remove(path.c_str());
  const bench::FeatureGrid g = bench::FeatureGrid::p2(4, 2, 64, 256);
  const bench::Dataset collected = bench::load_or_collect(
      path, testing_support::small_machine(), g, {coll::Collective::Bcast}, 13);
  const bench::Dataset loaded = bench::load_or_collect(
      path, testing_support::small_machine(), g, {coll::Collective::Bcast}, 13);
  std::remove(path.c_str());
  ASSERT_EQ(collected.size(), loaded.size());
  for (const BenchmarkPoint& p : collected.points()) {
    ASSERT_TRUE(loaded.contains(p)) << p.to_string();
    const bench::Measurement& a = collected.at(p);
    const bench::Measurement& b = loaded.at(p);
    EXPECT_EQ(a.mean_us, b.mean_us) << p.to_string();
    EXPECT_EQ(a.stddev_us, b.stddev_us) << p.to_string();
    EXPECT_EQ(a.iterations, b.iterations) << p.to_string();
    EXPECT_EQ(a.collect_cost_s, b.collect_cost_s) << p.to_string();
  }
}

TEST(Dataset, CollectionCostsArePositiveAndSummable) {
  const bench::Dataset& ds = testing_support::small_dataset();
  double total = 0.0;
  for (const BenchmarkPoint& p : ds.points()) {
    EXPECT_GT(ds.at(p).collect_cost_s, 0.0);
    total += ds.at(p).collect_cost_s;
  }
  EXPECT_NEAR(ds.total_collection_cost_s(), total, 1e-9 * total);
}

TEST(Dataset, MessageSizesIncludeNonP2Variants) {
  const bench::Dataset& ds = testing_support::small_dataset();
  const auto msgs = ds.message_sizes(coll::Collective::Bcast);
  int p2 = 0;
  int nonp2 = 0;
  for (std::uint64_t m : msgs) {
    (util::is_power_of_two(m) ? p2 : nonp2)++;
  }
  EXPECT_GT(p2, 5);
  EXPECT_GT(nonp2, 5);
}

}  // namespace
