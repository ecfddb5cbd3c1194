// Unit tests for the compute thread pool: task submission, parallel_for
// coverage, exception propagation, reentrancy, shutdown semantics, stats,
// and the global-pool controls the CLI/bench `--threads` flag drives.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace acclaim;

TEST(ThreadPool, SubmitReturnsValueThroughFuture) {
  util::ThreadPool pool(4);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitRunsInlineWithoutWorkers) {
  util::ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1);
  std::atomic<bool> ran{false};
  pool.submit([&] { ran = true; }).get();
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(pool.stats().tasks_executed, 1u);  // ran inline, still counted
  EXPECT_EQ(pool.stats().queue_peak, 0u);      // but never queued
}

TEST(ThreadPool, SizeClampsToAtLeastOne) {
  util::ThreadPool pool(-3);
  EXPECT_EQ(pool.size(), 1);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    util::ThreadPool pool(threads);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> hits(kN);
    pool.parallel_for(0, kN, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " with " << threads << " threads";
    }
  }
}

TEST(ThreadPool, ParallelForFromSeveralCallerThreadsCoversEachRangeOnce) {
  // acclaimd's batch requests enter one pool from several threads at once;
  // each caller's loop must still visit its own range exactly once.
  util::ThreadPool pool(4);
  constexpr std::size_t kN = 500;
  constexpr std::size_t kCallers = 3;
  constexpr int kReps = 4;
  std::vector<std::atomic<int>> hits(kN * kCallers);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int rep = 0; rep < kReps; ++rep) {
        pool.parallel_for(0, kN, [&](std::size_t i) { hits[c * kN + i].fetch_add(1); });
      }
    });
  }
  for (std::thread& t : callers) {
    t.join();
  }
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), kReps) << "caller " << i / kN << " index " << i % kN;
  }
}

TEST(ThreadPool, ParallelForEmptyAndSingleRanges) {
  util::ThreadPool pool(4);
  int calls = 0;
  // Ranges of size <= 1 run as a single chunk, so these "shared" writes are
  // exclusive by construction. acclaim-lint: allow(par-shared-write)
  pool.parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::size_t seen = 0;
  // acclaim-lint: allow(par-shared-write)
  pool.parallel_for(7, 8, [&](std::size_t i) { seen = i; ++calls; });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen, 7u);
}

TEST(ThreadPool, ParallelForRespectsGrain) {
  util::ThreadPool pool(4);
  constexpr std::size_t kN = 256;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(0, kN, [&](std::size_t i) { hits[i].fetch_add(1); }, /*grain=*/32);
  const int total = std::accumulate(hits.begin(), hits.end(), 0,
                                    [](int acc, const std::atomic<int>& h) { return acc + h.load(); });
  EXPECT_EQ(total, static_cast<int>(kN));
}

TEST(ThreadPool, SubmitExceptionSurfacesThroughFuture) {
  util::ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("task boom"); });
  EXPECT_THROW(
      {
        try {
          fut.get();
        } catch (const std::runtime_error& e) {
          EXPECT_STREQ(e.what(), "task boom");
          throw;
        }
      },
      std::runtime_error);
}

TEST(ThreadPool, ParallelForRethrowsBodyException) {
  for (int threads : {1, 4}) {
    util::ThreadPool pool(threads);
    EXPECT_THROW(
        {
          try {
            pool.parallel_for(0, 100, [](std::size_t i) {
              if (i == 37) {
                throw std::runtime_error("loop boom");
              }
            });
          } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "loop boom");
            throw;
          }
        },
        std::runtime_error);
  }
}

TEST(ThreadPool, ParallelForExceptionCancelsRemainingChunks) {
  util::ThreadPool pool(2);
  std::atomic<int> executed{0};
  constexpr std::size_t kN = 100000;
  try {
    pool.parallel_for(0, kN, [&](std::size_t i) {
      if (i == 0) {
        throw std::runtime_error("early");
      }
      executed.fetch_add(1);
    });
    FAIL() << "expected rethrow";
    // Arriving here (instead of FAIL) is the assertion.
  } catch (const std::runtime_error&) {
  }
  // The in-flight chunks finish, everything after the cancellation is
  // skipped; with any sensible scheduling most of the range never runs.
  EXPECT_LT(executed.load(), static_cast<int>(kN));
}

TEST(ThreadPool, ReentrantParallelForRunsInline) {
  util::ThreadPool pool(4);
  constexpr std::size_t kOuter = 16;
  constexpr std::size_t kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  pool.parallel_for(0, kOuter, [&](std::size_t o) {
    pool.parallel_for(0, kInner, [&](std::size_t i) { hits[o * kInner + i].fetch_add(1); });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "flat index " << i;
  }
  // The inner loops must have run inline on their workers — they count as
  // inline runs in the stats.
  EXPECT_GE(pool.stats().inline_runs, 1u);
}

TEST(ThreadPool, InPoolOnlyTrueOnWorkers) {
  util::ThreadPool pool(4);
  EXPECT_FALSE(pool.in_pool());
  auto fut = pool.submit([&] { return pool.in_pool(); });
  EXPECT_TRUE(fut.get());
}

TEST(ThreadPool, ShutdownIsIdempotentAndDestructorSafe) {
  util::ThreadPool pool(4);
  pool.submit([] { return 1; }).get();
  pool.shutdown();
  pool.shutdown();  // second call must be a no-op
  EXPECT_THROW(pool.submit([] { return 2; }), InvalidArgument);
  EXPECT_THROW(pool.parallel_for(0, 4, [](std::size_t) {}), InvalidArgument);
  // destructor runs shutdown a third time on scope exit
}

TEST(ThreadPool, ShutdownDrainsQueuedTasks) {
  std::atomic<int> ran{0};
  std::vector<std::future<void>> futs;
  {
    util::ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      futs.push_back(pool.submit([&] { ran.fetch_add(1); }));
    }
    pool.shutdown();
  }
  for (auto& f : futs) {
    f.get();  // every queued task completed, none dropped
  }
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, StatsCountWork) {
  util::ThreadPool pool(4);
  const auto before = pool.stats();
  EXPECT_EQ(before.threads, 4);
  EXPECT_EQ(before.parallel_fors, 0u);
  pool.parallel_for(0, 64, [](std::size_t) {});
  pool.submit([] {}).get();
  const auto after = pool.stats();
  EXPECT_EQ(after.parallel_fors, 1u);
  EXPECT_GE(after.tasks_executed, 1u);
  EXPECT_GE(after.queue_peak, 0u);
}

TEST(ThreadPool, GlobalPoolResize) {
  const int original = util::global_threads();
  util::set_global_threads(3);
  EXPECT_EQ(util::global_threads(), 3);
  EXPECT_EQ(util::global_pool().size(), 3);
  std::vector<std::atomic<int>> hits(128);
  util::global_pool().parallel_for(0, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) {
    ASSERT_EQ(h.load(), 1);
  }
  util::set_global_threads(0);  // restore the default
  EXPECT_GE(util::global_threads(), 1);
  util::set_global_threads(original);
}

TEST(ThreadPool, HardwareThreadsPositive) { EXPECT_GE(util::hardware_threads(), 1); }

TEST(RngStream, PureFunctionOfSeedAndIndex) {
  const auto a = util::Rng::stream(123, 7).next_u64();
  const auto b = util::Rng::stream(123, 7).next_u64();
  EXPECT_EQ(a, b);
  EXPECT_NE(util::Rng::stream(123, 8).next_u64(), a);
  EXPECT_NE(util::Rng::stream(124, 7).next_u64(), a);
}

TEST(RngStream, AdjacentStreamsDecorrelated) {
  // Crude independence check: across 64 adjacent streams, the first draws
  // should not collide and their low bits should look balanced.
  std::vector<std::uint64_t> firsts;
  int low_bits = 0;
  for (std::uint64_t i = 0; i < 64; ++i) {
    const std::uint64_t v = util::Rng::stream(0xACC1A1Full, i).next_u64();
    firsts.push_back(v);
    low_bits += static_cast<int>(v & 1u);
  }
  std::sort(firsts.begin(), firsts.end());
  EXPECT_EQ(std::adjacent_find(firsts.begin(), firsts.end()), firsts.end());
  EXPECT_GT(low_bits, 16);
  EXPECT_LT(low_bits, 48);
}

}  // namespace
