// Tests for the acclaimd serving core: snapshot publication (copy-on-write,
// concurrent readers), the LRU decision cache, the NDJSON protocol's
// untrusted-input handling, the serving-vs-direct differential guarantee, and
// the daemon's two read loops (stream and unix socket) with their line cap.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/model.hpp"
#include "serve/daemon.hpp"
#include "serve/decision_cache.hpp"
#include "serve/model_store.hpp"
#include "serve/protocol.hpp"
#include "serve/serve_core.hpp"
#include "telemetry/metrics.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace {

using namespace acclaim;

/// A small trained model whose labels depend on `bias` so two fits of the
/// same collective can be told apart by their selections.
core::CollectiveModel trained_model(coll::Collective c, double bias = 2.0) {
  std::vector<core::LabeledPoint> data;
  double t = 10.0;
  int alg_index = 0;
  for (coll::Algorithm a : coll::algorithms_for(c)) {
    ++alg_index;
    for (int n : {2, 4, 8}) {
      for (std::uint64_t msg : {64ull, 1024ull, 65536ull}) {
        // With bias > 1 later algorithms get slower, with bias < 1 faster,
        // flipping which algorithm wins.
        const double cost = t * (bias > 1.0 ? alg_index * bias : 1.0 / (alg_index * -bias));
        data.push_back({bench::BenchmarkPoint{bench::Scenario{c, n, 4, msg}, a}, cost});
        t *= 1.13;
      }
    }
  }
  ml::ForestParams params = core::default_forest_params();
  params.n_trees = 10;
  core::CollectiveModel model(c, params);
  model.fit(data, 17);
  return model;
}

// ---------------------------------------------------------------------------
// Copy-on-write model contract

TEST(ModelCow, CopyKeepsAnsweringFromTheForestItWasCopiedWith) {
  core::CollectiveModel original = trained_model(coll::Collective::Bcast, 2.0);
  const core::CollectiveModel copy = original;  // shares the immutable forest

  const bench::Scenario s{coll::Collective::Bcast, 4, 4, 1024};
  const coll::Algorithm before = copy.select(s);
  EXPECT_EQ(original.select(s), before);

  // Refit the original with inverted labels; the copy must not move.
  core::CollectiveModel refit = trained_model(coll::Collective::Bcast, -2.0);
  std::vector<core::LabeledPoint> data;
  int alg_index = 0;
  for (coll::Algorithm a : coll::algorithms_for(coll::Collective::Bcast)) {
    ++alg_index;
    for (int n : {2, 4, 8}) {
      data.push_back({bench::BenchmarkPoint{bench::Scenario{coll::Collective::Bcast, n, 4, 512}, a},
                      1000.0 / alg_index});
    }
  }
  original.fit(data, 23);
  EXPECT_EQ(copy.select(s), before);
  // And the copy still reports its own training size.
  EXPECT_TRUE(copy.trained());
}

// ---------------------------------------------------------------------------
// Model store

TEST(ModelStore, PublishLookupAndWildcardResolve) {
  serve::ModelStore store;
  EXPECT_EQ(store.size(), 0u);
  const serve::ModelKey exact{coll::Collective::Bcast, 32, "default"};
  const serve::ModelKey wildcard{coll::Collective::Bcast, 0, "default"};

  const std::uint64_t v1 = store.publish(wildcard, trained_model(coll::Collective::Bcast));
  EXPECT_GE(v1, 1u);
  EXPECT_EQ(store.size(), 1u);

  // Exact key misses, wildcard fallback answers.
  EXPECT_EQ(store.lookup(exact), nullptr);
  const auto snap = store.resolve(exact);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, v1);
  EXPECT_EQ(snap->key.comm_size, 0);

  // Publishing the exact key shadows the wildcard for that scale.
  const std::uint64_t v2 = store.publish(exact, trained_model(coll::Collective::Bcast));
  EXPECT_GT(v2, v1);
  const auto snap2 = store.resolve(exact);
  ASSERT_NE(snap2, nullptr);
  EXPECT_EQ(snap2->version, v2);
  // Other scales still fall back to the wildcard.
  EXPECT_EQ(store.resolve({coll::Collective::Bcast, 64, "default"})->version, v1);
  // Unknown topology resolves nothing.
  EXPECT_EQ(store.resolve({coll::Collective::Bcast, 32, "torus"}), nullptr);
}

TEST(ModelStore, RejectsUntrainedAndMismatchedModels) {
  serve::ModelStore store;
  EXPECT_THROW(store.publish({coll::Collective::Bcast, 0, "default"}, core::CollectiveModel{}),
               InvalidArgument);
  EXPECT_THROW(store.publish({coll::Collective::Allreduce, 0, "default"},
                             trained_model(coll::Collective::Bcast)),
               InvalidArgument);
}

TEST(ModelStore, RepublishKeepsOldSnapshotAliveForHolders) {
  serve::ModelStore store;
  const serve::ModelKey key{coll::Collective::Bcast, 0, "default"};
  store.publish(key, trained_model(coll::Collective::Bcast, 2.0));
  const auto old_snap = store.lookup(key);
  ASSERT_NE(old_snap, nullptr);
  const bench::Scenario s{coll::Collective::Bcast, 4, 4, 1024};
  const coll::Algorithm old_answer = old_snap->model.select(s);

  store.publish(key, trained_model(coll::Collective::Bcast, -2.0));
  const auto new_snap = store.lookup(key);
  ASSERT_NE(new_snap, nullptr);
  EXPECT_GT(new_snap->version, old_snap->version);
  // The held snapshot still answers from the forest it was published with.
  EXPECT_EQ(old_snap->model.select(s), old_answer);
}

TEST(ModelStore, ConcurrentReadersNeverSeeATornSnapshot) {
  serve::ModelStore store;
  const serve::ModelKey key{coll::Collective::Bcast, 0, "default"};
  const core::CollectiveModel a = trained_model(coll::Collective::Bcast, 2.0);
  const core::CollectiveModel b = trained_model(coll::Collective::Bcast, -2.0);
  store.publish(key, a);

  const bench::Scenario s{coll::Collective::Bcast, 8, 4, 4096};
  const coll::Algorithm answer_a = a.select(s);
  const coll::Algorithm answer_b = b.select(s);

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const auto snap = store.resolve(key);
        if (!snap) {
          bad.fetch_add(1);
          continue;
        }
        // Whatever version we got, its selection must be one of the two
        // published models' answers, and the snapshot must be internally
        // consistent (version matches the model's bits).
        const coll::Algorithm got = snap->model.select(s);
        if (got != answer_a && got != answer_b) {
          bad.fetch_add(1);
        }
      }
    });
  }
  for (int i = 0; i < 25; ++i) {
    store.publish(key, i % 2 == 0 ? b : a);
  }
  stop.store(true);
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_EQ(bad.load(), 0);
}

TEST(ModelStore, ConcurrentPublishersNeverLeaveAnOlderVersionVisible) {
  // Racing publishers can fetch versions in one order and store in another;
  // the store must keep the highest version visible regardless.
  serve::ModelStore store;
  const serve::ModelKey key{coll::Collective::Bcast, 0, "default"};
  const core::CollectiveModel model = trained_model(coll::Collective::Bcast);
  std::atomic<std::uint64_t> max_version{0};
  std::vector<std::thread> publishers;
  for (int t = 0; t < 4; ++t) {
    publishers.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        const std::uint64_t v = store.publish(key, model);
        std::uint64_t seen = max_version.load();
        while (seen < v && !max_version.compare_exchange_weak(seen, v)) {
        }
      }
    });
  }
  for (auto& p : publishers) {
    p.join();
  }
  const auto snap = store.lookup(key);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->version, max_version.load());
}

TEST(ModelStore, WholeStoreReadsRaceSafelyWithPublishesToEveryShard) {
  // size(), keys() and nearest() read the whole store while two publishers
  // add keys to it. Keys are never erased, so a reader's count never
  // shrinks, and once one key is visible nearest() always finds a donor.
  serve::ModelStore store;
  const core::CollectiveModel model = trained_model(coll::Collective::Bcast);
  const std::vector<std::string> topologies = {"t0", "t1"};  // one publisher each
  constexpr int kKeysEach = 32;
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      std::size_t last = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::size_t n = store.size();
        const std::vector<serve::ModelKey> keys = store.keys();
        const serve::NearestMatch near = store.nearest({coll::Collective::Bcast, 64, "t0"}, 100.0);
        if (n < last || keys.size() < n || !std::is_sorted(keys.begin(), keys.end()) ||
            (n > 0 && near.snapshot == nullptr)) {
          bad.fetch_add(1);
        }
        last = n;
      }
    });
  }
  std::vector<std::thread> publishers;
  for (const std::string& topology : topologies) {
    publishers.emplace_back([&] {
      for (int i = 0; i < kKeysEach; ++i) {
        store.publish({coll::Collective::Bcast, 2 + i, topology}, model);
      }
    });
  }
  for (auto& p : publishers) {
    p.join();
  }
  stop.store(true);
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(store.size(), topologies.size() * kKeysEach);
  EXPECT_EQ(store.keys().size(), store.size());
}

TEST(ModelStore, KeyDistanceMetric) {
  using coll::Collective;
  const serve::ModelKey want{Collective::Bcast, 32, "bebop"};
  EXPECT_DOUBLE_EQ(serve::model_key_distance(want, want), 0.0);
  // |log2 comm_size| delta between concrete scales.
  EXPECT_DOUBLE_EQ(serve::model_key_distance(want, {Collective::Bcast, 64, "bebop"}), 1.0);
  EXPECT_DOUBLE_EQ(serve::model_key_distance(want, {Collective::Bcast, 8, "bebop"}), 2.0);
  // Wildcard scale transfers, but less sharply than an exact match.
  EXPECT_DOUBLE_EQ(serve::model_key_distance(want, {Collective::Bcast, 0, "bebop"}), 0.5);
  // Cross-topology transfer is a last resort.
  EXPECT_DOUBLE_EQ(serve::model_key_distance(want, {Collective::Bcast, 32, "theta"}), 16.0);
  EXPECT_DOUBLE_EQ(serve::model_key_distance(want, {Collective::Bcast, 64, "theta"}), 17.0);
}

TEST(ModelStore, NearestPicksClosestScaleWithDeterministicTies) {
  serve::ModelStore store;
  const core::CollectiveModel bcast = trained_model(coll::Collective::Bcast);
  store.publish({coll::Collective::Bcast, 8, "bebop"}, bcast);
  store.publish({coll::Collective::Bcast, 32, "bebop"}, bcast);
  store.publish({coll::Collective::Allgather, 16, "bebop"},
                trained_model(coll::Collective::Allgather));

  // Only same-collective snapshots are candidates: the exact-scale allgather
  // model must not shadow the bcast ones.
  const auto near = store.nearest({coll::Collective::Bcast, 16, "bebop"}, 8.0);
  ASSERT_NE(near.snapshot, nullptr);
  EXPECT_EQ(near.snapshot->key.collective, coll::Collective::Bcast);
  EXPECT_DOUBLE_EQ(near.distance, 1.0);
  // Both bcast keys are at distance 1; the tie breaks to the smaller key.
  EXPECT_EQ(near.snapshot->key.comm_size, 8);

  // The cutoff is inclusive and an out-of-range query comes back empty.
  EXPECT_NE(store.nearest({coll::Collective::Bcast, 16, "bebop"}, 1.0).snapshot, nullptr);
  EXPECT_EQ(store.nearest({coll::Collective::Bcast, 16, "bebop"}, 0.5).snapshot, nullptr);
  EXPECT_EQ(store.nearest({coll::Collective::Reduce, 16, "bebop"}, 8.0).snapshot, nullptr);
}

TEST(ModelStore, PublishWithSupportRoundTripsAndRepublishCanDropIt) {
  serve::ModelStore store;
  const serve::ModelKey key{coll::Collective::Bcast, 16, "bebop"};
  const core::CollectiveModel model = trained_model(coll::Collective::Bcast);

  auto support = std::make_shared<std::vector<core::LabeledPoint>>();
  support->push_back({bench::BenchmarkPoint{bench::Scenario{coll::Collective::Bcast, 4, 4, 64},
                                            coll::Algorithm::BcastBinomial},
                      12.5});
  const std::uint64_t v1 = store.publish(key, model, support);
  const auto snap = store.lookup(key);
  ASSERT_NE(snap, nullptr);
  ASSERT_NE(snap->support, nullptr);
  ASSERT_EQ(snap->support->size(), 1u);
  EXPECT_DOUBLE_EQ((*snap->support)[0].time_us, 12.5);

  // A republish without support replaces the payload along with the model.
  const std::uint64_t v2 = store.publish(key, model);
  EXPECT_GT(v2, v1);
  const auto fresh = store.lookup(key);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->support, nullptr);
  // The old snapshot held by a reader keeps its payload.
  EXPECT_NE(snap->support, nullptr);
}

// ---------------------------------------------------------------------------
// Decision cache

TEST(DecisionCache, QuantizationIsLossless) {
  // Distinct integer scenarios must produce distinct keys — this is what
  // makes cached answers bitwise-identical to direct selection.
  std::set<serve::DecisionKey> keys;
  std::size_t scenarios = 0;
  for (int n : {2, 3, 4, 63, 64}) {
    for (int ppn : {1, 2, 16, 17}) {
      for (std::uint64_t msg : {8ull, 9ull, 1024ull, 123457ull, 1048576ull}) {
        for (coll::Collective c : {coll::Collective::Bcast, coll::Collective::Allreduce}) {
          keys.insert(serve::quantize(1, bench::Scenario{c, n, ppn, msg}));
          ++scenarios;
        }
      }
    }
  }
  EXPECT_EQ(keys.size(), scenarios);
  // A republished snapshot changes the key, invalidating stale decisions.
  const bench::Scenario s{coll::Collective::Bcast, 4, 4, 1024};
  EXPECT_NE(serve::quantize(1, s), serve::quantize(2, s));
}

TEST(DecisionCache, HitMissAndEvictionCounters) {
  serve::DecisionCache cache(4);
  const auto key = [](std::uint64_t msg) {
    return serve::quantize(1, bench::Scenario{coll::Collective::Bcast, 2, 2, msg});
  };
  EXPECT_FALSE(cache.get(key(1)).has_value());
  for (std::uint64_t m = 1; m <= 4; ++m) {
    cache.put(key(m), coll::Algorithm::BcastBinomial);
  }
  EXPECT_TRUE(cache.get(key(1)).has_value());  // refreshes 1 to MRU
  cache.put(key(5), coll::Algorithm::BcastBinomial);  // evicts 2 (LRU), not 1
  EXPECT_TRUE(cache.get(key(1)).has_value());
  EXPECT_FALSE(cache.get(key(2)).has_value());
  EXPECT_TRUE(cache.get(key(5)).has_value());

  const auto st = cache.stats();
  EXPECT_EQ(st.capacity, 4u);
  EXPECT_EQ(st.entries, 4u);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.hits, 3u);
  EXPECT_EQ(st.misses, 2u);
}

TEST(DecisionCache, HoldsExactlyItsCapacity) {
  for (const std::size_t capacity : {1, 5, 64, 100}) {
    serve::DecisionCache cache(capacity);
    for (std::uint64_t m = 1; m <= 1000; ++m) {
      cache.put(serve::quantize(1, bench::Scenario{coll::Collective::Bcast, 2, 2, m}),
                coll::Algorithm::BcastBinomial);
    }
    const auto st = cache.stats();
    EXPECT_EQ(st.capacity, capacity);
    EXPECT_EQ(st.entries, capacity);
    EXPECT_EQ(st.evictions, 1000u - capacity);
  }
}

TEST(DecisionCache, ZeroCapacityIsRejected) {
  EXPECT_THROW(serve::DecisionCache{0}, InvalidArgument);
  serve::ServeConfig cfg;
  cfg.cache_capacity = 0;
  EXPECT_THROW(serve::ServeCore{cfg}, InvalidArgument);
}

TEST(DecisionCache, ConcurrentGetsAndPutsKeepExactCounts) {
  // Four threads probe a shared hot set and stream cold keys through the
  // cache. Every get counts once as a hit or a miss, a hit returns what was
  // put for its key, and the entry budget holds.
  serve::DecisionCache cache(256);
  const std::vector<coll::Algorithm> algs = coll::algorithms_for(coll::Collective::Bcast);
  const auto alg_for = [&](std::uint64_t msg) { return algs[msg % algs.size()]; };
  constexpr int kThreads = 4;
  constexpr int kOps = 2000;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOps; ++i) {
        const std::uint64_t msg = i % 2 == 0 ? static_cast<std::uint64_t>(i / 2 % 16) + 1
                                             : static_cast<std::uint64_t>(1000 + (i * 7 + t) % 1024);
        const serve::DecisionKey key =
            serve::quantize(1, bench::Scenario{coll::Collective::Bcast, 2, 2, msg});
        if (const auto hit = cache.get(key)) {
          if (*hit != alg_for(msg)) {
            wrong.fetch_add(1);
          }
        } else {
          cache.put(key, alg_for(msg));
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const auto st = cache.stats();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(st.hits + st.misses, static_cast<std::uint64_t>(kThreads * kOps));
  EXPECT_LE(st.entries, st.capacity);
  EXPECT_GT(st.hits, 0u);
  EXPECT_GT(st.evictions, 0u);
}

// ---------------------------------------------------------------------------
// Serving core: differential guarantee

TEST(ServeCore, ServingMatchesDirectSelectionOnHitAndMissPaths) {
  serve::ServeConfig cfg;
  cfg.cache_capacity = 32;  // small enough to force evictions mid-test
  serve::ServeCore core(cfg);
  const core::CollectiveModel model = trained_model(coll::Collective::Bcast);
  core.publish({coll::Collective::Bcast, 0, "default"}, model);

  std::vector<bench::Scenario> scenarios;
  for (int n : {2, 3, 4, 8, 16, 33}) {
    for (int ppn : {1, 4, 16}) {
      for (std::uint64_t msg : {8ull, 100ull, 1024ull, 9999ull, 1048576ull}) {
        scenarios.push_back({coll::Collective::Bcast, n, ppn, msg});
      }
    }
  }
  // Miss path (first pass) and hit path (second pass) both match direct
  // selection bit for bit.
  for (int pass = 0; pass < 2; ++pass) {
    for (const bench::Scenario& s : scenarios) {
      EXPECT_EQ(core.select(s).algorithm, model.select(s)) << s.to_string();
    }
  }
  // Batched path matches too.
  const std::vector<serve::Decision> batched = core.select_batch(scenarios);
  const std::vector<coll::Algorithm> direct = model.select_batch(scenarios);
  ASSERT_EQ(batched.size(), direct.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    EXPECT_EQ(batched[i].algorithm, direct[i]) << scenarios[i].to_string();
  }
  const auto st = core.cache_stats();
  EXPECT_GT(st.hits, 0u);
  EXPECT_GT(st.misses, 0u);
}

TEST(ServeCore, SmallMissGroupsRunThroughTheFusedKernel) {
  // A single-query miss and batches of one to three misses each score every
  // scenario with one fused forest call: the answer is direct select()'s,
  // and ml.forest.batched_rows grows by the scenario's candidate rows.
  serve::ServeCore core;
  const core::CollectiveModel model = trained_model(coll::Collective::Bcast);
  core.publish({coll::Collective::Bcast, 0, "default"}, model);
  const std::uint64_t n_algs = coll::algorithms_for(coll::Collective::Bcast).size();
  const telemetry::Counter& rows = telemetry::metrics().counter("ml.forest.batched_rows");
  std::uint64_t msg = 64;  // every scenario is new, so every query misses
  const auto fresh = [&] { return bench::Scenario{coll::Collective::Bcast, 4, 4, msg++}; };

  const bench::Scenario s = fresh();
  std::uint64_t before = rows.value();
  const serve::Decision d = core.select(s);
  EXPECT_EQ(rows.value() - before, n_algs);
  EXPECT_FALSE(d.cache_hit);
  EXPECT_EQ(d.algorithm, model.select(s));

  for (const std::uint64_t n : {1u, 2u, 3u}) {
    std::vector<bench::Scenario> batch;
    for (std::uint64_t i = 0; i < n; ++i) {
      batch.push_back(fresh());
    }
    before = rows.value();
    const std::vector<serve::Decision> ds = core.select_batch(batch);
    EXPECT_EQ(rows.value() - before, n * n_algs) << "batch of " << n;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_FALSE(ds[i].cache_hit);
      EXPECT_EQ(ds[i].algorithm, model.select(batch[i])) << "batch of " << n;
    }
  }
}

TEST(ServeCore, SecondIdenticalQueryIsACacheHit) {
  serve::ServeCore core;
  core.publish({coll::Collective::Allreduce, 0, "default"},
               trained_model(coll::Collective::Allreduce));
  const bench::Scenario s{coll::Collective::Allreduce, 4, 4, 2048};
  const serve::Decision first = core.select(s);
  EXPECT_FALSE(first.cache_hit);
  const serve::Decision second = core.select(s);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.algorithm, second.algorithm);
  EXPECT_EQ(first.version, second.version);
}

TEST(ServeCore, UnservedScenarioThrowsNotFound) {
  serve::ServeCore core;
  EXPECT_THROW(core.select({coll::Collective::Bcast, 4, 4, 1024}), NotFoundError);
}

TEST(ServeCore, DecisionsDuringRepublishCarryTheAnswerOfTheirVersion) {
  // Readers race a publisher that alternates two models with different
  // answers. Each decision names the snapshot version that made it and must
  // carry that model's answer, whether it came from the forest or the cache.
  serve::ServeCore core;
  const serve::ModelKey key{coll::Collective::Bcast, 0, "default"};
  const std::vector<coll::Algorithm> algs = coll::algorithms_for(coll::Collective::Bcast);
  const auto preferring = [&](std::size_t fastest) {
    std::vector<core::LabeledPoint> data;
    for (std::size_t j = 0; j < algs.size(); ++j) {
      for (int n : {2, 4, 8}) {
        for (std::uint64_t msg : {64ull, 1024ull, 65536ull}) {
          data.push_back(
              {bench::BenchmarkPoint{bench::Scenario{coll::Collective::Bcast, n, 4, msg}, algs[j]},
               j == fastest ? 1.0 : 10.0 + static_cast<double>(j)});
        }
      }
    }
    ml::ForestParams params = core::default_forest_params();
    params.n_trees = 10;
    core::CollectiveModel model(coll::Collective::Bcast, params);
    model.fit(data, 17);
    return model;
  };
  const core::CollectiveModel a = preferring(0);
  const core::CollectiveModel b = preferring(1);
  std::vector<bench::Scenario> scenarios;
  std::vector<coll::Algorithm> answer_a;
  std::vector<coll::Algorithm> answer_b;
  for (int n : {2, 4, 8}) {
    for (std::uint64_t msg : {64ull, 1024ull, 65536ull}) {
      scenarios.push_back({coll::Collective::Bcast, n, 4, msg});
      answer_a.push_back(a.select(scenarios.back()));
      answer_b.push_back(b.select(scenarios.back()));
    }
  }
  ASSERT_NE(answer_a, answer_b);

  // One publisher, so versions are consecutive and their parity names the
  // model: `first` and every even step after it is a, the odd steps b.
  const std::uint64_t first = core.publish(key, a);
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        for (std::size_t i = 0; i < scenarios.size(); ++i) {
          const serve::Decision d = core.select(scenarios[i]);
          const bool is_a = (d.version - first) % 2 == 0;
          if (d.version < first || d.algorithm != (is_a ? answer_a[i] : answer_b[i])) {
            bad.fetch_add(1);
          }
        }
      }
    });
  }
  for (int i = 0; i < 20; ++i) {
    core.publish(key, i % 2 == 0 ? b : a);
  }
  stop.store(true);
  for (auto& r : readers) {
    r.join();
  }
  EXPECT_EQ(bad.load(), 0);
}

TEST(ServeCore, ConcurrentBatchesMatchDirectSelection) {
  // Three clients' batches share the global thread pool at once; a small
  // cache keeps most of them on the batched kernel. Each must still get
  // exactly the per-scenario answers.
  serve::ServeConfig cfg;
  cfg.cache_capacity = 16;
  serve::ServeCore core(cfg);
  const core::CollectiveModel model = trained_model(coll::Collective::Bcast);
  core.publish({coll::Collective::Bcast, 0, "default"}, model);
  std::vector<bench::Scenario> scenarios;
  for (int n : {2, 3, 4, 8, 16}) {
    for (int ppn : {1, 4, 16}) {
      for (std::uint64_t msg : {8ull, 100ull, 1024ull, 9999ull}) {
        scenarios.push_back({coll::Collective::Bcast, n, ppn, msg});
      }
    }
  }
  const std::vector<coll::Algorithm> direct = model.select_batch(scenarios);
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 3; ++t) {
    clients.emplace_back([&] {
      for (int rep = 0; rep < 5; ++rep) {
        const std::vector<serve::Decision> got = core.select_batch(scenarios);
        if (got.size() != direct.size()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (std::size_t i = 0; i < got.size(); ++i) {
          if (got[i].algorithm != direct[i]) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& c : clients) {
    c.join();
  }
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------------------------
// Protocol: untrusted input never crashes

TEST(Protocol, MalformedRequestsThrowTypedErrors) {
  EXPECT_THROW(serve::parse_request("{bad json"), ParseError);
  EXPECT_THROW(serve::parse_request("[1,2]"), InvalidArgument);
  EXPECT_THROW(serve::parse_request("{}"), InvalidArgument);
  EXPECT_THROW(serve::parse_request(R"({"op":"warp"})"), InvalidArgument);
  EXPECT_THROW(serve::parse_request(R"({"op":"query"})"), InvalidArgument);
  EXPECT_THROW(
      serve::parse_request(R"({"op":"query","collective":"bcast","nodes":0,"ppn":1,"msg":8})"),
      InvalidArgument);
  EXPECT_THROW(
      serve::parse_request(
          R"({"op":"query","collective":"bcast","nodes":4.5,"ppn":1,"msg":8})"),
      InvalidArgument);
  EXPECT_THROW(
      serve::parse_request(
          R"({"op":"query","collective":"bcast","nodes":99999999,"ppn":1,"msg":8})"),
      InvalidArgument);
  EXPECT_THROW(
      serve::parse_request(R"({"op":"query","collective":"nope","nodes":4,"ppn":1,"msg":8})"),
      InvalidArgument);
  EXPECT_THROW(serve::parse_request(R"({"op":"batch","queries":[]})"), InvalidArgument);
  EXPECT_THROW(serve::parse_request(R"({"op":"publish","path":""})"), InvalidArgument);
}

TEST(Protocol, HugeDoublesAreRejectedNotCastToInt) {
  // 1e300 is finite but unrepresentable in int64: the parser must range-check
  // in the double domain, never cast first.
  for (const char* v : {"1e300", "-1e300", "9.3e18", "1e18.5"}) {
    EXPECT_THROW(serve::parse_request(std::string(R"({"op":"query","collective":"bcast",)") +
                                      R"("nodes":)" + v + R"(,"ppn":1,"msg":8})"),
                 acclaim::Error)
        << v;
  }
}

TEST(Protocol, RankProductBeyondCapIsRejected) {
  // nodes and ppn each sit at their individual caps, so only the joint
  // kMaxRanks check keeps Scenario::nranks() (int) from overflowing.
  EXPECT_THROW(serve::parse_request(
                   R"({"op":"query","collective":"bcast","nodes":4194304,"ppn":65536,"msg":8})"),
               InvalidArgument);
  EXPECT_THROW(serve::parse_request(
                   R"({"op":"publish","path":"m.json","nodes":4194304,"ppn":65536})"),
               InvalidArgument);
  // At the cap exactly (2^12 x 2^16 = 2^28 = kMaxRanks) parses fine.
  const serve::Request req = serve::parse_request(
      R"({"op":"query","collective":"bcast","nodes":4096,"ppn":65536,"msg":8})");
  EXPECT_EQ(std::int64_t{req.queries[0].nnodes} * req.queries[0].ppn, serve::kMaxRanks);
}

TEST(Protocol, PublishRequiresNodesAndPpnTogether) {
  // One without the other would silently publish under the wildcard scale.
  EXPECT_THROW(serve::parse_request(R"({"op":"publish","path":"m.json","nodes":4})"),
               InvalidArgument);
  EXPECT_THROW(serve::parse_request(R"({"op":"publish","path":"m.json","ppn":8})"),
               InvalidArgument);
  const serve::Request both =
      serve::parse_request(R"({"op":"publish","path":"m.json","nodes":4,"ppn":8})");
  EXPECT_EQ(both.nodes, 4);
  EXPECT_EQ(both.ppn, 8);
  const serve::Request neither = serve::parse_request(R"({"op":"publish","path":"m.json"})");
  EXPECT_EQ(neither.nodes, 0);
  EXPECT_EQ(neither.ppn, 0);
}

TEST(Protocol, RoundTripsWellFormedRequests) {
  const serve::Request req = serve::parse_request(
      R"({"op":"query","collective":"allreduce","nodes":16,"ppn":32,"msg":65536})");
  EXPECT_EQ(req.op, serve::Op::Query);
  ASSERT_EQ(req.queries.size(), 1u);
  EXPECT_EQ(req.queries[0].collective, coll::Collective::Allreduce);
  EXPECT_EQ(req.queries[0].nnodes, 16);
  EXPECT_EQ(req.queries[0].ppn, 32);
  EXPECT_EQ(req.queries[0].msg_bytes, 65536u);
  // Serialize and reparse.
  const serve::Request again = serve::parse_request(serve::request_to_json(req).dump());
  EXPECT_EQ(again.queries[0].msg_bytes, req.queries[0].msg_bytes);
}

// ---------------------------------------------------------------------------
// Daemon

class DaemonTest : public ::testing::Test {
 protected:
  DaemonTest() : core_(), daemon_(core_) {
    core_.publish({coll::Collective::Bcast, 0, "default"},
                  trained_model(coll::Collective::Bcast));
  }

  util::Json respond(const std::string& line) {
    return util::Json::parse(daemon_.handle_line(line));
  }

  /// Serves `input` through serve_stream and returns the parsed response
  /// lines, checking that serve_stream counted each of them.
  std::vector<util::Json> stream(const std::string& input) {
    std::istringstream in(input);
    std::ostringstream out;
    const std::uint64_t handled = daemon_.serve_stream(in, out);
    std::vector<util::Json> responses;
    std::istringstream lines(out.str());
    for (std::string line; std::getline(lines, line);) {
      responses.push_back(util::Json::parse(line));
    }
    EXPECT_EQ(handled, responses.size());
    return responses;
  }

  serve::ServeCore core_;
  serve::Daemon daemon_;
};

TEST_F(DaemonTest, AnswersQueriesWithTheModelsAnswer) {
  const util::Json r =
      respond(R"({"op":"query","collective":"bcast","nodes":4,"ppn":8,"msg":4096})");
  ASSERT_TRUE(r.at("ok").as_bool());
  const bench::Scenario s{coll::Collective::Bcast, 4, 8, 4096};
  const auto snap = core_.store().resolve({coll::Collective::Bcast, 32, "default"});
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(r.at("algorithm").as_string(), coll::algorithm_info(snap->model.select(s)).name);
}

TEST_F(DaemonTest, MalformedLinesBecomeErrorResponsesNotCrashes) {
  for (const char* line :
       {"nonsense", "{", R"({"op":"query"})", R"({"op":"query","collective":"bcast",
        "nodes":-1,"ppn":8,"msg":4096})",
        R"({"op":"publish","path":"/nonexistent/model.json"})"}) {
    const util::Json r = respond(line);
    EXPECT_FALSE(r.at("ok").as_bool()) << line;
    EXPECT_FALSE(r.at("error").as_string().empty()) << line;
  }
  EXPECT_FALSE(daemon_.shutdown_requested());
}

TEST_F(DaemonTest, PublishOfAModelWiderThanItsCollectiveIsRejected) {
  // Trees declaring three more features than bcast's encoding: the publish
  // fails with one error line and queries keep answering from version 1.
  util::Json doc = trained_model(coll::Collective::Bcast).to_json();
  for (util::Json& tree : doc["forest"]["trees"].as_array()) {
    tree["n_features"] = tree.at("n_features").as_number() + 3.0;
  }
  serve::Daemon daemon(core_, ::testing::TempDir());
  const std::string name = "acclaimd_widened_model.json";
  const std::string path = ::testing::TempDir() + name;
  doc.dump_file(path);
  const util::Json pub =
      util::Json::parse(daemon.handle_line(R"({"op":"publish","path":")" + name + R"("})"));
  std::remove(path.c_str());
  EXPECT_FALSE(pub.at("ok").as_bool());
  EXPECT_FALSE(pub.at("error").as_string().empty());

  const util::Json r =
      respond(R"({"op":"query","collective":"bcast","nodes":4,"ppn":8,"msg":4096})");
  ASSERT_TRUE(r.at("ok").as_bool());
  EXPECT_EQ(r.at("version").as_number(), 1.0);
}

/// A model directory of its own under the test temp dir, with one model
/// file in it and one beside it (outside), removed at the end.
class DaemonPublishTest : public DaemonTest {
 protected:
  void SetUp() override {
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(dir_);
    trained_model(coll::Collective::Bcast, -2.0).to_json().dump_file(dir_ + "/model.json");
    trained_model(coll::Collective::Bcast, -2.0).to_json().dump_file(root_ + "/outside.json");
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  /// The version the daemon answers a bcast query from.
  double served_version() {
    const util::Json r =
        respond(R"({"op":"query","collective":"bcast","nodes":4,"ppn":8,"msg":4096})");
    EXPECT_TRUE(r.at("ok").as_bool());
    return r.at("version").as_number();
  }

  /// Sends a publish of `path` to `daemon` and returns its response.
  static util::Json publish(serve::Daemon& daemon, const std::string& path) {
    return util::Json::parse(
        daemon.handle_line(R"({"op":"publish","path":")" + path + R"("})"));
  }

  const std::string root_ =
      ::testing::TempDir() + "acclaimd_publish_" + std::to_string(::getpid());
  const std::string dir_ = root_ + "/models";
};

TEST_F(DaemonPublishTest, AFileInsideTheModelDirectoryPublishes) {
  serve::Daemon daemon(core_, dir_);
  const util::Json pub = publish(daemon, "model.json");
  ASSERT_TRUE(pub.at("ok").as_bool()) << pub.dump();
  EXPECT_EQ(pub.at("version").as_number(), 2.0);
  EXPECT_EQ(served_version(), 2.0);
}

TEST_F(DaemonPublishTest, PathsOutsideTheModelDirectoryAreRefused) {
  std::filesystem::create_symlink(root_ + "/outside.json", dir_ + "/escape.json");
  std::filesystem::create_directory_symlink(root_, dir_ + "/up");
  serve::Daemon daemon(core_, dir_);
  for (const std::string& path :
       {root_ + "/outside.json", dir_ + "/model.json", std::string("../outside.json"),
        std::string("sub/../../outside.json"), std::string("escape.json"),
        std::string("up/outside.json"), std::string("missing.json"), std::string(".")}) {
    const util::Json pub = publish(daemon, path);
    EXPECT_FALSE(pub.at("ok").as_bool()) << path;
    EXPECT_FALSE(pub.at("error").as_string().empty()) << path;
    EXPECT_EQ(served_version(), 1.0) << path;
  }
}

TEST_F(DaemonPublishTest, ADaemonWithoutAModelDirectoryRefusesEveryPublish) {
  for (const std::string& path : {std::string("model.json"), dir_ + "/model.json"}) {
    const util::Json pub = respond(R"({"op":"publish","path":")" + path + R"("})");
    EXPECT_FALSE(pub.at("ok").as_bool()) << path;
    EXPECT_NE(pub.at("error").as_string().find("--model-dir"), std::string::npos) << path;
    EXPECT_EQ(served_version(), 1.0) << path;
  }
}

TEST_F(DaemonPublishTest, AModelDirectoryMustExist) {
  EXPECT_THROW(serve::Daemon(core_, root_ + "/absent"), InvalidArgument);
  EXPECT_THROW(serve::Daemon(core_, dir_ + "/model.json"), InvalidArgument);
}

TEST_F(DaemonTest, QueryForUnservedCollectiveIsAnErrorResponse) {
  const util::Json r =
      respond(R"({"op":"query","collective":"reduce","nodes":4,"ppn":8,"msg":4096})");
  EXPECT_FALSE(r.at("ok").as_bool());
}

TEST_F(DaemonTest, BatchReturnsOneResultPerQueryInOrder) {
  const util::Json r = respond(
      R"({"op":"batch","queries":[)"
      R"({"collective":"bcast","nodes":2,"ppn":4,"msg":64},)"
      R"({"collective":"bcast","nodes":8,"ppn":4,"msg":65536}]})");
  ASSERT_TRUE(r.at("ok").as_bool());
  const util::JsonArray& results = r.at("results").as_array();
  ASSERT_EQ(results.size(), 2u);
  const auto snap = core_.store().resolve({coll::Collective::Bcast, 8, "default"});
  EXPECT_EQ(results[0].at("algorithm").as_string(),
            coll::algorithm_info(snap->model.select({coll::Collective::Bcast, 2, 4, 64})).name);
  EXPECT_EQ(
      results[1].at("algorithm").as_string(),
      coll::algorithm_info(snap->model.select({coll::Collective::Bcast, 8, 4, 65536})).name);
}

TEST_F(DaemonTest, StatsReportsCacheCounters) {
  respond(R"({"op":"query","collective":"bcast","nodes":4,"ppn":8,"msg":4096})");
  respond(R"({"op":"query","collective":"bcast","nodes":4,"ppn":8,"msg":4096})");
  const util::Json r = respond(R"({"op":"stats"})");
  ASSERT_TRUE(r.at("ok").as_bool());
  EXPECT_EQ(r.at("models").as_number(), 1.0);
  EXPECT_GE(r.at("cache_hits").as_number(), 1.0);
  EXPECT_GE(r.at("cache_misses").as_number(), 1.0);
}

TEST_F(DaemonTest, UnixSocketRefusesToClobberARegularFile) {
  const std::string path = ::testing::TempDir() + "acclaimd_not_a_socket";
  {
    std::ofstream f(path);
    f << "precious data\n";
  }
  EXPECT_THROW(daemon_.serve_unix_socket(path), IoError);
  // The file survives the refused bind.
  std::ifstream back(path);
  std::string word;
  back >> word;
  EXPECT_EQ(word, "precious");
  std::remove(path.c_str());
}

TEST_F(DaemonTest, ServeStreamHandlesLinesUntilShutdown) {
  std::istringstream in(
      "{\"op\":\"ping\"}\n"
      "not json at all\n"
      "{\"op\":\"shutdown\"}\n"
      "{\"op\":\"ping\"}\n");  // never reached: shutdown stops the loop
  std::ostringstream out;
  const std::uint64_t handled = daemon_.serve_stream(in, out);
  EXPECT_EQ(handled, 3u);
  EXPECT_TRUE(daemon_.shutdown_requested());
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_TRUE(util::Json::parse(line).at("ok").as_bool());
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_FALSE(util::Json::parse(line).at("ok").as_bool());
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_TRUE(util::Json::parse(line).at("ok").as_bool());
  EXPECT_FALSE(std::getline(lines, line));
}

TEST_F(DaemonTest, OverlongLineIsRefusedAndServingContinues) {
  // A ping padded to one byte over the cap gets one error naming the cap;
  // its bytes are dropped and the next line is served as usual.
  std::string padded = R"({"op":"ping"})";
  padded.resize(serve::kMaxLineBytes + 1, ' ');
  std::istringstream in(padded + "\n" + R"({"op":"ping"})" + "\n");
  std::ostringstream out;
  EXPECT_EQ(daemon_.serve_stream(in, out), 2u);
  std::istringstream lines(out.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  const util::Json refused = util::Json::parse(line);
  EXPECT_FALSE(refused.at("ok").as_bool());
  EXPECT_NE(refused.at("error").as_string().find(std::to_string(serve::kMaxLineBytes)),
            std::string::npos);
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_TRUE(util::Json::parse(line).at("ok").as_bool());
  EXPECT_FALSE(std::getline(lines, line));
}

TEST_F(DaemonTest, LargestLegalBatchFitsUnderTheLineCap) {
  // kMaxBatch copies of the longest legal compact query (longest collective
  // name, ten digits of nodes and ppn at the rank cap, a 19-digit msg) under
  // a 256-char topology.
  const std::string topology(256, 't');
  core_.publish({coll::Collective::ReduceScatterBlock, 0, topology},
                trained_model(coll::Collective::ReduceScatterBlock));
  const std::string query =
      R"({"collective":"reduce_scatter_block","nodes":1048576,"ppn":256,)"
      R"("msg":4611686018427387904})";
  std::string request = R"({"op":"batch","queries":[)" + query;
  for (std::size_t i = 1; i < serve::kMaxBatch; ++i) {
    request += "," + query;
  }
  request += R"(],"topology":")" + topology + R"("})";
  std::istringstream in(request + "\n");
  std::ostringstream out;
  EXPECT_EQ(daemon_.serve_stream(in, out), 1u);
  const util::Json r = util::Json::parse(out.str());
  ASSERT_TRUE(r.at("ok").as_bool()) << out.str().substr(0, 200);
  EXPECT_EQ(r.at("results").as_array().size(), serve::kMaxBatch);
}

/// `{"op":"ping"}` padded with trailing spaces to `bytes`.
std::string padded_ping(std::size_t bytes) {
  std::string line = R"({"op":"ping"})";
  line.resize(bytes, ' ');
  return line;
}

TEST_F(DaemonTest, LineExactlyAtTheCapIsServed) {
  const std::vector<util::Json> r = stream(padded_ping(serve::kMaxLineBytes) + "\n");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_TRUE(r[0].at("ok").as_bool());
}

TEST_F(DaemonTest, OverlongLineSpanningManyReadsIsAnsweredOnce) {
  // Twice the cap: after its error the reader drops the rest of the line
  // through thousands more reads and must not answer it again.
  const std::vector<util::Json> r =
      stream(padded_ping(2 * serve::kMaxLineBytes + 1) + "\n" + R"({"op":"ping"})" + "\n");
  ASSERT_EQ(r.size(), 2u);
  EXPECT_FALSE(r[0].at("ok").as_bool());
  EXPECT_TRUE(r[1].at("ok").as_bool());
}

TEST_F(DaemonTest, OverlongLastLineWithoutNewlineIsRefusedOnce) {
  const std::vector<util::Json> r = stream(padded_ping(serve::kMaxLineBytes + 1));
  ASSERT_EQ(r.size(), 1u);
  EXPECT_FALSE(r[0].at("ok").as_bool());
}

TEST_F(DaemonTest, LastLineWithoutNewlineIsServed) {
  const std::vector<util::Json> r = stream(R"({"op":"ping"})" "\n" R"({"op":"stats"})");
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].at("op").as_string(), "ping");
  EXPECT_EQ(r[1].at("op").as_string(), "stats");
}

TEST_F(DaemonTest, EmptyLinesGetNoResponse) {
  const std::vector<util::Json> r = stream("\n\n" R"({"op":"ping"})" "\n\n");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_TRUE(r[0].at("ok").as_bool());
}

TEST_F(DaemonTest, CrlfLineEndingsAreAccepted) {
  const std::vector<util::Json> r = stream("{\"op\":\"ping\"}\r\n{\"op\":\"stats\"}\r\n");
  ASSERT_EQ(r.size(), 2u);
  EXPECT_TRUE(r[0].at("ok").as_bool());
  EXPECT_TRUE(r[1].at("ok").as_bool());
}

TEST_F(DaemonTest, LinesAroundTheReadChunkEdgeAreOneRequestEach) {
  // serve_stream reads at most 4095 bytes of a line at a time. Lines that
  // end just before, on and just after one or two chunk edges are each
  // exactly one request.
  const std::vector<std::size_t> lengths = {4094, 4095, 4096, 4097, 8190, 8191, 8192};
  std::string input;
  for (std::size_t len : lengths) {
    input += padded_ping(len) + "\n";
  }
  const std::vector<util::Json> r = stream(input);
  ASSERT_EQ(r.size(), lengths.size());
  for (const util::Json& response : r) {
    EXPECT_TRUE(response.at("ok").as_bool());
  }
}

TEST_F(DaemonTest, NulByteDoesNotEndTheLine) {
  // Bytes are handed on by count, so what follows a NUL stays part of the
  // request and makes it malformed instead of being cut off.
  const std::vector<util::Json> r = stream(std::string(R"({"op":"ping"})") + '\0' + "junk\n");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_FALSE(r[0].at("ok").as_bool());
}

// ---------------------------------------------------------------------------
// Daemon over a unix socket

bool answered_ok(const util::Json& r) { return r.is_object() && r.at("ok").as_bool(); }
bool answered_error(const util::Json& r) { return r.is_object() && !r.at("ok").as_bool(); }

/// One blocking client connection to the daemon's socket. Connecting
/// retries while the daemon thread is still binding, and reads give up
/// after 10 s, so a daemon that never answers fails the test instead of
/// hanging it.
class SocketClient {
 public:
  explicit SocketClient(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    for (int attempt = 0; attempt < 500 && fd_ < 0; ++attempt) {
      fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
      if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        ::close(fd_);
        fd_ = -1;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    const timeval timeout{10, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~SocketClient() {
    if (fd_ >= 0) {
      ::close(fd_);
    }
  }
  SocketClient(const SocketClient&) = delete;
  SocketClient& operator=(const SocketClient&) = delete;

  bool connected() const { return fd_ >= 0; }

  void send(const std::string& bytes) {
    for (std::size_t off = 0; off < bytes.size();) {
      const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << std::strerror(errno);
      off += static_cast<std::size_t>(n);
    }
  }

  /// The next response line, parsed; null once the daemon has closed the
  /// connection or did not answer in time.
  util::Json read_response() {
    std::size_t nl;
    while ((nl = buffer_.find('\n')) == std::string::npos) {
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) {
        return util::Json();
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
    const std::string line = buffer_.substr(0, nl);
    buffer_.erase(0, nl + 1);
    return util::Json::parse(line);
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Runs serve_unix_socket on a thread of its own for the length of a test.
class DaemonSocketTest : public DaemonTest {
 protected:
  void SetUp() override {
    std::remove(path_.c_str());
    server_ = std::thread([this] {
      try {
        handled_ = daemon_.serve_unix_socket(path_);
      } catch (const std::exception& e) {
        error_ = e.what();
      }
    });
  }

  void TearDown() override {
    if (server_.joinable()) {
      stop();
    }
  }

  /// Sends a shutdown on a connection of its own and returns the loop's
  /// request count once it has returned. The daemon serves one connection
  /// at a time, so the test's own clients must be closed first.
  std::uint64_t stop() {
    {
      SocketClient client(path_);
      client.send(R"({"op":"shutdown"})" "\n");
      EXPECT_TRUE(answered_ok(client.read_response()));
    }
    return join();
  }

  /// Waits for the loop to return after a shutdown the test sent itself.
  std::uint64_t join() {
    server_.join();
    EXPECT_EQ(error_, "");
    return handled_;
  }

  const std::string path_ =
      ::testing::TempDir() + "acclaimd_test_" + std::to_string(::getpid()) + ".sock";
  std::thread server_;
  std::uint64_t handled_ = 0;
  std::string error_;
};

TEST_F(DaemonSocketTest, AnswersRequestsAndRemovesTheSocketOnShutdown) {
  {
    SocketClient client(path_);
    ASSERT_TRUE(client.connected());
    client.send(R"({"op":"ping"})" "\n");
    EXPECT_TRUE(answered_ok(client.read_response()));
  }
  EXPECT_EQ(stop(), 2u);  // the ping and the shutdown
  EXPECT_FALSE(std::filesystem::exists(path_));
}

TEST_F(DaemonSocketTest, ReassemblesARequestSentOneByteAtATime) {
  SocketClient client(path_);
  ASSERT_TRUE(client.connected());
  for (char c : std::string(R"({"op":"ping"})" "\n")) {
    client.send(std::string(1, c));
  }
  EXPECT_TRUE(answered_ok(client.read_response()));
}

TEST_F(DaemonSocketTest, AnswersEveryRequestOfOneSendInOrder) {
  SocketClient client(path_);
  ASSERT_TRUE(client.connected());
  client.send(R"({"op":"ping"})" "\n" "nonsense\n" R"({"op":"stats"})" "\n");
  const util::Json ping = client.read_response();
  const util::Json malformed = client.read_response();
  const util::Json stats = client.read_response();
  ASSERT_TRUE(answered_ok(ping));
  EXPECT_EQ(ping.at("op").as_string(), "ping");
  EXPECT_TRUE(answered_error(malformed));
  ASSERT_TRUE(answered_ok(stats));
  EXPECT_EQ(stats.at("op").as_string(), "stats");
}

TEST_F(DaemonSocketTest, RefusesAnOverlongLineAndKeepsTheConnection) {
  SocketClient client(path_);
  ASSERT_TRUE(client.connected());
  client.send(padded_ping(serve::kMaxLineBytes + 1) + "\n" + R"({"op":"ping"})" + "\n");
  const util::Json refused = client.read_response();
  ASSERT_TRUE(answered_error(refused));
  EXPECT_NE(refused.at("error").as_string().find(std::to_string(serve::kMaxLineBytes)),
            std::string::npos);
  EXPECT_TRUE(answered_ok(client.read_response()));
}

TEST_F(DaemonSocketTest, RequestsAfterAShutdownInTheSameSendAreNotAnswered) {
  {
    SocketClient client(path_);
    ASSERT_TRUE(client.connected());
    client.send(R"({"op":"shutdown"})" "\n" R"({"op":"ping"})" "\n");
    EXPECT_TRUE(answered_ok(client.read_response()));
    EXPECT_TRUE(client.read_response().is_null());  // closed without a second answer
  }
  EXPECT_EQ(join(), 1u);
}

TEST_F(DaemonSocketTest, APartialLineEndsWithItsConnection) {
  {
    SocketClient first(path_);
    ASSERT_TRUE(first.connected());
    first.send(R"({"op":)");  // the peer hangs up mid-request
  }
  // Were the partial line carried over, this ping would continue it.
  SocketClient second(path_);
  ASSERT_TRUE(second.connected());
  second.send(R"({"op":"ping"})" "\n");
  EXPECT_TRUE(answered_ok(second.read_response()));
}

TEST_F(DaemonSocketTest, SecondDaemonOnALiveSocketIsRefused) {
  {
    SocketClient client(path_);  // the first daemon is listening
    ASSERT_TRUE(client.connected());
  }
  serve::ServeCore other_core;
  serve::Daemon other(other_core);
  EXPECT_THROW(other.serve_unix_socket(path_), IoError);
  // The live daemon keeps its socket and keeps serving.
  SocketClient client(path_);
  ASSERT_TRUE(client.connected());
  client.send(R"({"op":"ping"})" "\n");
  EXPECT_TRUE(answered_ok(client.read_response()));
}

TEST_F(DaemonTest, UnixSocketReplacesAStaleSocketFile) {
  // A socket file nothing accepts on is a dead daemon's leftover: the next
  // daemon takes its place instead of refusing to start.
  const std::string path =
      ::testing::TempDir() + "acclaimd_stale_" + std::to_string(::getpid()) + ".sock";
  std::remove(path.c_str());
  {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_EQ(::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
    ::close(fd);  // closed without unlinking: the file stays behind
  }
  ASSERT_TRUE(std::filesystem::is_socket(path));
  std::uint64_t handled = 0;
  std::string error;
  std::thread server([&] {
    try {
      handled = daemon_.serve_unix_socket(path);
    } catch (const std::exception& e) {
      error = e.what();
    }
  });
  {
    SocketClient client(path);
    client.send(R"({"op":"shutdown"})" "\n");
    EXPECT_TRUE(answered_ok(client.read_response()));
  }
  server.join();
  EXPECT_EQ(error, "");
  EXPECT_EQ(handled, 1u);
  std::remove(path.c_str());
}

TEST_F(DaemonSocketTest, AnOverlongLineEndsWithItsConnection) {
  {
    SocketClient first(path_);
    ASSERT_TRUE(first.connected());
    first.send(padded_ping(serve::kMaxLineBytes + 1));  // refused, never finished
    EXPECT_TRUE(answered_error(first.read_response()));
  }
  // Were the reader still dropping, this ping would go unanswered.
  SocketClient second(path_);
  ASSERT_TRUE(second.connected());
  second.send(R"({"op":"ping"})" "\n");
  EXPECT_TRUE(answered_ok(second.read_response()));
}

}  // namespace
