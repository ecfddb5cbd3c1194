// Correctness tests for every collective algorithm: schedules are executed
// byte-accurately by the DataExecutor and the final buffers are compared
// against the mathematical definition of the collective. Parameterized over
// algorithm x rank count (power-of-two and non-power-of-two) x element count
// (divisible and ragged) x root.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>
#include <string>
#include <tuple>
#include <vector>

#include "collectives/types.hpp"
#include "minimpi/data_executor.hpp"
#include "minimpi/ops.hpp"
#include "util/error.hpp"

namespace {

using acclaim::coll::Algorithm;
using acclaim::coll::algorithm_info;
using acclaim::coll::buffer_requirements;
using acclaim::coll::Collective;
using acclaim::coll::CollParams;
using acclaim::minimpi::BufKind;
using acclaim::minimpi::DataExecutor;
using acclaim::minimpi::ReduceOp;

/// Deterministic per-rank input pattern.
double input_value(int rank, std::uint64_t i) {
  return static_cast<double>(rank + 1) * 1000.0 + static_cast<double>(i);
}

/// Builds the executor, initializes inputs per the collective's buffer
/// convention, runs the schedule, and returns the executor for inspection.
DataExecutor run_collective(Algorithm alg, const CollParams& p, ReduceOp op = ReduceOp::Sum) {
  const Collective c = algorithm_info(alg).collective;
  const auto sizes = buffer_requirements(c, p);
  DataExecutor exec(p.nranks, sizes.send_bytes, sizes.recv_bytes, sizes.tmp_bytes, op);
  if (c == Collective::Bcast) {
    auto& payload = exec.buffer(p.root, BufKind::Recv);
    for (std::uint64_t i = 0; i < p.count; ++i) {
      payload[i] = input_value(p.root, i);
    }
  } else {
    for (int r = 0; r < p.nranks; ++r) {
      auto& send = exec.buffer(r, BufKind::Send);
      for (std::uint64_t i = 0; i < p.count; ++i) {
        send[i] = input_value(r, i);
      }
    }
  }
  build_schedule(alg, p, exec);
  return exec;
}

void expect_bcast_result(const DataExecutor& exec, const CollParams& p) {
  for (int r = 0; r < p.nranks; ++r) {
    const auto& recv = exec.buffer(r, BufKind::Recv);
    for (std::uint64_t i = 0; i < p.count; ++i) {
      ASSERT_DOUBLE_EQ(recv[i], input_value(p.root, i))
          << "rank " << r << " element " << i;
    }
  }
}

void expect_reduce_result(const DataExecutor& exec, const CollParams& p, ReduceOp op,
                          bool everywhere) {
  for (int r = 0; r < p.nranks; ++r) {
    if (!everywhere && r != p.root) {
      continue;
    }
    const auto& recv = exec.buffer(r, BufKind::Recv);
    for (std::uint64_t i = 0; i < p.count; ++i) {
      double expect = acclaim::minimpi::reduce_identity(op);
      for (int s = 0; s < p.nranks; ++s) {
        expect = acclaim::minimpi::reduce_scalar(op, expect, input_value(s, i));
      }
      ASSERT_NEAR(recv[i], expect, 1e-6 * std::abs(expect) + 1e-9)
          << "rank " << r << " element " << i;
    }
  }
}

void expect_allgather_result(const DataExecutor& exec, const CollParams& p) {
  for (int r = 0; r < p.nranks; ++r) {
    const auto& recv = exec.buffer(r, BufKind::Recv);
    for (int s = 0; s < p.nranks; ++s) {
      for (std::uint64_t i = 0; i < p.count; ++i) {
        ASSERT_DOUBLE_EQ(recv[static_cast<std::uint64_t>(s) * p.count + i], input_value(s, i))
            << "rank " << r << " source " << s << " element " << i;
      }
    }
  }
}

struct Case {
  Algorithm alg;
  int nranks;
  std::uint64_t count;
  int root;
};

/// gtest prints each parameter into the registered test name. Print the
/// fields: the default byte dump would include Case's uninitialized tail
/// padding, so the names would change from build to build.
void PrintTo(const Case& c, std::ostream* os) {
  *os << algorithm_info(c.alg).name << " n" << c.nranks << " c" << c.count << " r" << c.root;
}

std::string case_name(const testing::TestParamInfo<Case>& info) {
  const auto& c = info.param;
  const auto& ai = algorithm_info(c.alg);
  return std::string(acclaim::coll::collective_name(ai.collective)) + "_" + ai.name + "_n" +
         std::to_string(c.nranks) + "_c" + std::to_string(c.count) + "_r" +
         std::to_string(c.root);
}

class CollectiveCorrectness : public testing::TestWithParam<Case> {};

TEST_P(CollectiveCorrectness, ProducesDefinedResult) {
  const Case& c = GetParam();
  CollParams p;
  p.nranks = c.nranks;
  p.count = c.count;
  p.type_size = 8;
  p.root = c.root;
  const Collective coll = algorithm_info(c.alg).collective;
  const DataExecutor exec = run_collective(c.alg, p);
  switch (coll) {
    case Collective::Bcast: expect_bcast_result(exec, p); break;
    case Collective::Reduce: expect_reduce_result(exec, p, ReduceOp::Sum, false); break;
    case Collective::Allreduce: expect_reduce_result(exec, p, ReduceOp::Sum, true); break;
    case Collective::Allgather: expect_allgather_result(exec, p); break;
    default: FAIL() << "unexpected collective in the paper-algorithm fixture";
  }
}

std::vector<Case> make_cases() {
  // Only the paper's ten algorithms use this fixture's buffer conventions;
  // the extended collectives are covered by test_collectives_extended.cpp.
  std::vector<Case> cases;
  const std::vector<int> rank_counts = {1, 2, 3, 4, 5, 7, 8, 11, 13, 16, 17, 24, 32};
  const std::vector<std::uint64_t> counts = {1, 3, 8, 17, 64, 100};
  for (const auto& info : acclaim::coll::all_algorithms()) {
    const auto& paper = acclaim::coll::paper_collectives();
    if (std::find(paper.begin(), paper.end(), info.collective) == paper.end()) {
      continue;
    }
    const bool rooted =
        info.collective == Collective::Bcast || info.collective == Collective::Reduce;
    for (int n : rank_counts) {
      for (std::uint64_t cnt : counts) {
        // Keep the matrix meaningful but bounded: sweep all counts at a few
        // rank counts, and all rank counts at a couple of counts.
        const bool full_count_sweep = (n == 5 || n == 8 || n == 16);
        if (!full_count_sweep && cnt != 8 && cnt != 17) {
          continue;
        }
        cases.push_back({info.alg, n, cnt, 0});
        if (rooted && n >= 3 && (cnt == 8 || cnt == 17)) {
          cases.push_back({info.alg, n, cnt, n / 2});
          cases.push_back({info.alg, n, cnt, n - 1});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, CollectiveCorrectness, testing::ValuesIn(make_cases()),
                         case_name);

// Reductions must be correct for every supported op, not just Sum.
using ReduceOpCase = std::tuple<Algorithm, ReduceOp, int>;
class ReduceOps : public testing::TestWithParam<ReduceOpCase> {};

TEST_P(ReduceOps, MatchesScalarOracle) {
  const auto [alg, op, n] = GetParam();
  CollParams p;
  p.nranks = n;
  p.count = 24;
  p.type_size = 8;
  p.root = 0;
  const DataExecutor exec = run_collective(alg, p, op);
  const Collective coll = algorithm_info(alg).collective;
  expect_reduce_result(exec, p, op, coll == Collective::Allreduce);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, ReduceOps,
    testing::Combine(testing::Values(Algorithm::ReduceBinomial, Algorithm::ReduceScatterGather,
                                     Algorithm::AllreduceRecursiveDoubling,
                                     Algorithm::AllreduceReduceScatterAllgather),
                     testing::Values(ReduceOp::Sum, ReduceOp::Max, ReduceOp::Min),
                     testing::Values(6, 8, 13)),
    [](const testing::TestParamInfo<ReduceOpCase>& info) {
      return std::string(algorithm_info(std::get<0>(info.param)).name) + "_" +
             acclaim::minimpi::reduce_op_name(std::get<1>(info.param)) + "_n" +
             std::to_string(std::get<2>(info.param));
    });

TEST(CollectiveRegistry, PaperAlgorithmsAcrossFourCollectives) {
  // The paper's ten algorithms over its four collectives; the library's
  // full registry is larger (see test_collectives_extended.cpp).
  std::size_t paper_algs = 0;
  for (Collective c : acclaim::coll::paper_collectives()) {
    paper_algs += acclaim::coll::algorithms_for(c).size();
  }
  EXPECT_EQ(paper_algs, 10u);
  EXPECT_EQ(acclaim::coll::algorithms_for(Collective::Bcast).size(), 3u);
  EXPECT_EQ(acclaim::coll::algorithms_for(Collective::Reduce).size(), 2u);
  EXPECT_EQ(acclaim::coll::algorithms_for(Collective::Allreduce).size(), 2u);
  EXPECT_EQ(acclaim::coll::algorithms_for(Collective::Allgather).size(), 3u);
}

TEST(CollectiveRegistry, ParseRoundTrips) {
  for (const auto& info : acclaim::coll::all_algorithms()) {
    EXPECT_EQ(acclaim::coll::parse_algorithm(info.collective, info.name), info.alg);
  }
  EXPECT_THROW(acclaim::coll::parse_algorithm(Collective::Bcast, "ring"),
               acclaim::NotFoundError);
  EXPECT_EQ(acclaim::coll::parse_collective("bcast"), Collective::Bcast);
  EXPECT_THROW(acclaim::coll::parse_collective("alltoallv"), acclaim::InvalidArgument);
}

TEST(CollectiveParams, ValidationRejectsBadInputs) {
  CollParams p;
  p.nranks = 0;
  EXPECT_THROW(p.validate(), acclaim::InvalidArgument);
  p.nranks = 4;
  p.count = 0;
  EXPECT_THROW(p.validate(), acclaim::InvalidArgument);
  p.count = 1;
  p.root = 4;
  EXPECT_THROW(p.validate(), acclaim::InvalidArgument);
  p.root = 3;
  EXPECT_NO_THROW(p.validate());
}

}  // namespace
