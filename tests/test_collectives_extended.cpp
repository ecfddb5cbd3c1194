// Correctness tests for the extended collective set: gather, scatter,
// alltoall, reduce_scatter_block, barrier — byte-accurate execution checked
// against each collective's mathematical definition, across P2 and non-P2
// rank counts and roots.
#include <gtest/gtest.h>

#include <ostream>
#include <string>
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

double input_value(int rank, std::uint64_t i) {
  return static_cast<double>(rank + 1) * 1000.0 + static_cast<double>(i);
}

DataExecutor run_collective(Algorithm alg, const CollParams& p) {
  const Collective c = algorithm_info(alg).collective;
  const auto sizes = buffer_requirements(c, p);
  DataExecutor exec(p.nranks, sizes.send_bytes, sizes.recv_bytes, sizes.tmp_bytes,
                    ReduceOp::Sum);
  const std::uint64_t send_elems = sizes.send_bytes / 8;
  for (int r = 0; r < p.nranks; ++r) {
    auto& send = exec.buffer(r, BufKind::Send);
    for (std::uint64_t i = 0; i < send_elems; ++i) {
      send[i] = input_value(r, i);
    }
  }
  build_schedule(alg, p, exec);
  return exec;
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

class ExtendedCollectives : public testing::TestWithParam<Case> {};

TEST_P(ExtendedCollectives, ProducesDefinedResult) {
  const Case& c = GetParam();
  CollParams p;
  p.nranks = c.nranks;
  p.count = c.count;
  p.type_size = 8;
  p.root = c.root;
  const Collective coll = algorithm_info(c.alg).collective;
  const DataExecutor exec = run_collective(c.alg, p);
  const int n = p.nranks;
  switch (coll) {
    case Collective::Gather: {
      // Root's recv = concatenation of every rank's contribution, by rank.
      const auto& recv = exec.buffer(p.root, BufKind::Recv);
      for (int s = 0; s < n; ++s) {
        for (std::uint64_t i = 0; i < p.count; ++i) {
          ASSERT_DOUBLE_EQ(recv[static_cast<std::uint64_t>(s) * p.count + i],
                           input_value(s, i))
              << "source " << s << " elem " << i;
        }
      }
      break;
    }
    case Collective::Scatter: {
      // Rank r's recv = root's block r.
      for (int r = 0; r < n; ++r) {
        const auto& recv = exec.buffer(r, BufKind::Recv);
        for (std::uint64_t i = 0; i < p.count; ++i) {
          ASSERT_DOUBLE_EQ(recv[i],
                           input_value(p.root, static_cast<std::uint64_t>(r) * p.count + i))
              << "rank " << r << " elem " << i;
        }
      }
      break;
    }
    case Collective::Alltoall: {
      // Rank r's recv block s = rank s's send block r.
      for (int r = 0; r < n; ++r) {
        const auto& recv = exec.buffer(r, BufKind::Recv);
        for (int s = 0; s < n; ++s) {
          for (std::uint64_t i = 0; i < p.count; ++i) {
            ASSERT_DOUBLE_EQ(recv[static_cast<std::uint64_t>(s) * p.count + i],
                             input_value(s, static_cast<std::uint64_t>(r) * p.count + i))
                << "rank " << r << " from " << s << " elem " << i;
          }
        }
      }
      break;
    }
    case Collective::ReduceScatterBlock: {
      // Rank r's recv = sum over sources of their block r.
      for (int r = 0; r < n; ++r) {
        const auto& recv = exec.buffer(r, BufKind::Recv);
        for (std::uint64_t i = 0; i < p.count; ++i) {
          double expect = 0.0;
          for (int s = 0; s < n; ++s) {
            expect += input_value(s, static_cast<std::uint64_t>(r) * p.count + i);
          }
          ASSERT_NEAR(recv[i], expect, 1e-6) << "rank " << r << " elem " << i;
        }
      }
      break;
    }
    case Collective::Barrier:
      // No data contract; the schedule executed without violations.
      SUCCEED();
      break;
    default: FAIL() << "not an extended collective";
  }
}

std::vector<Case> make_cases() {
  std::vector<Case> cases;
  const std::vector<Algorithm> algs = {
      Algorithm::GatherBinomial,
      Algorithm::GatherLinear,
      Algorithm::ScatterBinomial,
      Algorithm::ScatterLinear,
      Algorithm::AlltoallBruck,
      Algorithm::AlltoallPairwise,
      Algorithm::ReduceScatterBlockRecursiveHalving,
      Algorithm::ReduceScatterBlockPairwise,
      Algorithm::BarrierDissemination,
      Algorithm::BarrierRecursiveDoubling,
  };
  for (Algorithm alg : algs) {
    const Collective c = algorithm_info(alg).collective;
    const bool rooted = c == Collective::Gather || c == Collective::Scatter;
    for (int n : {1, 2, 3, 5, 8, 11, 16, 21}) {
      for (std::uint64_t cnt : {1ull, 4ull, 9ull}) {
        if (cnt != 4 && n != 5 && n != 8) {
          continue;  // full count sweep only at two rank counts
        }
        cases.push_back({alg, n, cnt, 0});
        if (rooted && n >= 3 && cnt == 4) {
          cases.push_back({alg, n, cnt, n / 2});
          cases.push_back({alg, n, cnt, n - 1});
        }
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Extended, ExtendedCollectives, testing::ValuesIn(make_cases()),
                         case_name);

TEST(ExtendedRegistry, FullRegistryAcrossNineCollectives) {
  // 20 standard algorithms + 4 experimental SMP-aware + 2 pipelined chain.
  EXPECT_EQ(acclaim::coll::all_algorithms().size(), 26u);
  EXPECT_EQ(acclaim::coll::all_collectives().size(), 9u);
  EXPECT_EQ(acclaim::coll::paper_collectives().size(), 4u);
  EXPECT_EQ(acclaim::coll::algorithms_for(Collective::Gather).size(), 2u);
  EXPECT_EQ(acclaim::coll::algorithms_for(Collective::Alltoall).size(), 2u);
  EXPECT_EQ(acclaim::coll::algorithms_for(Collective::Barrier).size(), 2u);
  EXPECT_EQ(acclaim::coll::parse_collective("alltoall"), Collective::Alltoall);
  EXPECT_EQ(acclaim::coll::parse_algorithm(Collective::Barrier, "dissemination"),
            Algorithm::BarrierDissemination);
}

TEST(ExtendedShapes, BarrierRoundsAreLogarithmic) {
  for (int n : {2, 3, 8, 13, 16}) {
    acclaim::minimpi::RecordingSink sink;
    CollParams p;
    p.nranks = n;
    p.count = 1;
    build_schedule(Algorithm::BarrierDissemination, p, sink);
    int expected = 0;
    while ((1 << expected) < n) {
      ++expected;
    }
    EXPECT_EQ(static_cast<int>(sink.rounds().size()), expected) << "n=" << n;
  }
}

TEST(ExtendedShapes, LinearGatherSerializesAtTheRoot) {
  // All transfers target the root; the contention model must see fan-in.
  acclaim::minimpi::RecordingSink sink;
  CollParams p;
  p.nranks = 8;
  p.count = 16;
  build_schedule(Algorithm::GatherLinear, p, sink);
  ASSERT_EQ(sink.rounds().size(), 1u);
  for (const auto& t : sink.rounds()[0].transfers) {
    EXPECT_EQ(t.dst_rank, 0);
  }
}

TEST(ExtendedShapes, AlltoallBruckMovesLessThanPairwiseForManyRanks) {
  // Bruck: ~log2(p) rounds; pairwise: p-1 rounds + self round.
  acclaim::minimpi::RecordingSink bruck;
  acclaim::minimpi::RecordingSink pairwise;
  CollParams p;
  p.nranks = 16;
  p.count = 4;
  build_schedule(Algorithm::AlltoallBruck, p, bruck);
  build_schedule(Algorithm::AlltoallPairwise, p, pairwise);
  EXPECT_LT(bruck.rounds().size(), pairwise.rounds().size());
}

}  // namespace
