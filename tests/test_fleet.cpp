// Tests for the fleet-scale trace replay (ROADMAP "fleet-scale trace
// replay"): warm-start transfer economics, model-store population and
// republish versioning, config validation, and the cross-thread bitwise
// determinism contract the golden fingerprint encodes.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "fleet/fleet.hpp"
#include "serve/model_store.hpp"
#include "simnet/machine.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace acclaim;

/// Restores the global pool width other suites rely on.
class ThreadGuard {
 public:
  ThreadGuard() : original_(util::global_threads()) {}
  ~ThreadGuard() { util::set_global_threads(original_); }

 private:
  int original_;
};

/// A replay small enough for unit tests: few jobs and tiny forests. The
/// arrival gaps exceed the per-job training time so models publish before
/// the next job arrives and transfer chains can form even in a short stream.
fleet::FleetConfig small_fleet(int jobs = 6) {
  fleet::FleetConfig config;
  config.machine = simnet::bebop_like();
  config.stream.n_jobs = jobs;
  config.stream.mean_interarrival_s = 240.0;
  config.stream.node_choices = {4, 8};
  config.stream.ppn_choices = {2, 4};
  config.stream.seed = 21;
  config.learner.forest.n_trees = 10;
  config.learner.max_points = 40;
  config.trace_calls = 64;
  return config;
}

TEST(FleetReplay, WarmFleetTrainsCheaperAndPopulatesTheStore) {
  fleet::FleetConfig cold_cfg = small_fleet();
  cold_cfg.warm_start = false;
  serve::ModelStore cold_store;
  const fleet::FleetResult cold = fleet::replay_fleet(cold_cfg, cold_store);

  fleet::FleetConfig warm_cfg = small_fleet();
  serve::ModelStore warm_store;
  const fleet::FleetResult warm = fleet::replay_fleet(warm_cfg, warm_store);

  ASSERT_EQ(cold.jobs.size(), 6u);
  ASSERT_EQ(warm.jobs.size(), 6u);
  EXPECT_EQ(cold.totals.warm_jobs, 0u);
  // The stream repeats (app, scale) combinations within a few jobs, so the
  // warm arm must find donors and spend measurably less simulated time.
  EXPECT_GE(warm.totals.warm_jobs, 1u);
  EXPECT_LT(warm.totals.training_s, cold.totals.training_s);
  EXPECT_GT(warm.totals.mean_transfer_distance, -1.0);

  // Both arms publish every job's models.
  EXPECT_GT(cold_store.size(), 0u);
  EXPECT_GT(warm_store.size(), 0u);

  for (const fleet::JobOutcome& job : warm.jobs) {
    EXPECT_DOUBLE_EQ(job.completion_s, job.arrival_s + job.training_s);
    EXPECT_GT(job.points, 0u);
    if (job.warm_collectives == 0) {
      EXPECT_EQ(job.transfer_distance, -1.0);
    } else {
      EXPECT_GE(job.transfer_distance, 0.0);
    }
  }
  // Different training paths must change the fingerprint.
  EXPECT_NE(cold.fingerprint, warm.fingerprint);
}

TEST(FleetReplay, RepublishesExistingKeysWithIncreasingVersions) {
  // One scale only: every job of the same app republishes the identical
  // (collective, comm size, topology) keys.
  fleet::FleetConfig config = small_fleet(8);
  config.stream.node_choices = {4, 4};
  config.stream.ppn_choices = {2};
  serve::ModelStore store;
  const fleet::FleetResult result = fleet::replay_fleet(config, store);

  std::size_t publishes = 0;
  for (const fleet::JobOutcome& job : result.jobs) {
    publishes += static_cast<std::size_t>(job.total_collectives);
  }
  ASSERT_GT(publishes, store.size());  // pigeonhole: 8 jobs, 4 apps

  std::uint64_t max_version = 0;
  std::set<std::uint64_t> versions;
  for (const serve::ModelKey& key : store.keys()) {
    const auto snap = store.lookup(key);
    ASSERT_NE(snap, nullptr);
    ASSERT_NE(snap->support, nullptr);  // fleet always attaches transfer points
    EXPECT_FALSE(snap->support->empty());
    versions.insert(snap->version);
    max_version = std::max(max_version, snap->version);
  }
  EXPECT_EQ(versions.size(), store.size());  // versions stay unique
  // Republishing burned versions beyond the surviving key count.
  EXPECT_GT(max_version, store.size());
}

TEST(FleetReplay, FingerprintIsBitwiseDeterministicAcrossThreadCounts) {
  ThreadGuard guard;
  util::set_global_threads(1);
  serve::ModelStore golden_store;
  const fleet::FleetResult golden = fleet::replay_fleet(small_fleet(4), golden_store);
  ASSERT_FALSE(golden.fingerprint.empty());

  for (int threads : {2, 5}) {
    util::set_global_threads(threads);
    serve::ModelStore store;
    const fleet::FleetResult result = fleet::replay_fleet(small_fleet(4), store);
    EXPECT_EQ(result.fingerprint, golden.fingerprint) << "threads=" << threads;
    EXPECT_EQ(result.totals.points, golden.totals.points) << "threads=" << threads;
  }
}

TEST(FleetReplay, FingerprintSeparatesStreamsAndArms) {
  serve::ModelStore a_store;
  const auto a = fleet::replay_fleet(small_fleet(4), a_store);

  fleet::FleetConfig other = small_fleet(4);
  other.stream.seed = 22;
  serve::ModelStore b_store;
  const auto b = fleet::replay_fleet(other, b_store);
  EXPECT_NE(a.fingerprint, b.fingerprint);
}

TEST(FleetReplay, RejectsInconsistentConfigs) {
  serve::ModelStore store;

  fleet::FleetConfig no_jobs = small_fleet();
  no_jobs.stream.n_jobs = 0;
  EXPECT_THROW(fleet::replay_fleet(no_jobs, store), InvalidArgument);

  fleet::FleetConfig bad_gap = small_fleet();
  bad_gap.stream.mean_interarrival_s = 0.0;
  EXPECT_THROW(fleet::replay_fleet(bad_gap, store), InvalidArgument);

  fleet::FleetConfig too_big = small_fleet();
  too_big.stream.node_choices = {too_big.machine.total_nodes * 2};
  EXPECT_THROW(fleet::replay_fleet(too_big, store), InvalidArgument);
}

TEST(FleetReplay, RejectsRankProductsBeyondTheServingCap) {
  // Regression: nnodes x ppn used to be multiplied as a plain int, so a ppn
  // choice large enough to push the product past 2^31 overflowed before any
  // validation saw it (node choices are bounded by the machine, ppn choices
  // are not). The product now goes through serve::checked_comm_size, which
  // rejects anything above the joint rank cap in 64-bit arithmetic.
  serve::ModelStore store;
  fleet::FleetConfig config = small_fleet();
  config.stream.ppn_choices = {1 << 29};
  EXPECT_THROW(fleet::replay_fleet(config, store), InvalidArgument);
}

}  // namespace
