// Oracle regret: how much slower the tuned selection is than the best
// algorithm, priced with the simulator's noise-free cost model
// (bench::Microbenchmark::schedule_time_us) on the job's own network and
// allocation. The MPICH default's regret is kept beside it as context.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "benchdata/microbenchmark.hpp"
#include "benchdata/point.hpp"
#include "simnet/allocation.hpp"
#include "simnet/network.hpp"
#include "simnet/topology.hpp"
#include "util/rng.hpp"

namespace perfbench {

/// A job's feature space for pricing: the P2 grid (nodes 2..nnodes, ppn
/// 1..ppn, messages min_msg..max_msg) plus, per P2 message anchor, one
/// non-P2 size drawn from `rng`.
std::vector<acclaim::bench::Scenario> regret_space(acclaim::coll::Collective c, int nnodes,
                                                   int ppn, std::uint64_t min_msg,
                                                   std::uint64_t max_msg, acclaim::util::Rng& rng);

class OraclePricer {
 public:
  OraclePricer(const acclaim::simnet::Topology& topo, std::uint64_t job_seed);
  OraclePricer(const OraclePricer&) = delete;
  OraclePricer& operator=(const OraclePricer&) = delete;

  /// Prices every algorithm of `s` on the first s.nnodes nodes of `alloc`
  /// and books the regret of `pick` and of the MPICH default against the
  /// cheapest.
  void add(const acclaim::bench::Scenario& s, acclaim::coll::Algorithm pick,
           const acclaim::simnet::Allocation& alloc);

  std::size_t scenarios() const { return n_; }
  /// Mean (time of pick / best time - 1), in percent.
  double tuned_pct() const;
  double default_pct() const;
  /// "regret (tuned/default): allgather 48.7%/5.2%, ...; overall ..." —
  /// tuned and MPICH-default regret per collective and overall.
  std::string summary() const;

 private:
  struct Book {
    double tuned = 0.0;
    double dflt = 0.0;
    std::size_t n = 0;
  };

  acclaim::simnet::NetworkModel net_;
  acclaim::bench::Microbenchmark mb_;
  std::map<std::string, Book> books_;
  double tuned_sum_ = 0.0;
  double default_sum_ = 0.0;
  std::size_t n_ = 0;
};

}  // namespace perfbench
