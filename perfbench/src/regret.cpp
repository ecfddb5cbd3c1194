#include "regret.hpp"

#include <algorithm>
#include <sstream>

#include "benchdata/grid.hpp"
#include "collectives/types.hpp"
#include "core/heuristic.hpp"
#include "util/error.hpp"

namespace perfbench {

using namespace acclaim;

std::vector<bench::Scenario> regret_space(coll::Collective c, int nnodes, int ppn,
                                          std::uint64_t min_msg, std::uint64_t max_msg,
                                          util::Rng& rng) {
  const bench::FeatureGrid p2 = bench::FeatureGrid::p2(nnodes, ppn, min_msg, max_msg);
  std::vector<bench::Scenario> out = p2.scenarios(c);
  const std::vector<bench::Scenario> nonp2 = p2.with_nonp2_msgs(rng).scenarios(c);
  out.insert(out.end(), nonp2.begin(), nonp2.end());
  return out;
}

OraclePricer::OraclePricer(const simnet::Topology& topo, std::uint64_t job_seed)
    : net_(topo, job_seed), mb_(net_) {}

void OraclePricer::add(const bench::Scenario& s, coll::Algorithm pick,
                       const simnet::Allocation& alloc) {
  const auto price = [&](coll::Algorithm a) {
    return mb_.schedule_time_us(bench::BenchmarkPoint{s, a}, alloc);
  };
  const coll::Algorithm dflt = core::mpich_default_selection(s);
  double best = 0.0;
  double t_pick = -1.0;
  double t_default = -1.0;
  bool first = true;
  for (const coll::Algorithm a : coll::algorithms_for(s.collective)) {
    const double t = price(a);
    best = first ? t : std::min(best, t);
    first = false;
    if (a == pick) {
      t_pick = t;
    }
    if (a == dflt) {
      t_default = t;
    }
  }
  // A pick outside the standard set (an experimental algorithm) still gets
  // priced; the oracle's best stays over the standard set.
  if (t_pick < 0.0) {
    t_pick = price(pick);
  }
  if (t_default < 0.0) {
    t_default = price(dflt);
  }
  acclaim::require(best > 0.0, "oracle priced a scenario at zero time: " + s.to_string());
  const double tuned = t_pick / best - 1.0;
  const double dreg = t_default / best - 1.0;
  Book& book = books_[coll::collective_name(s.collective)];
  book.tuned += tuned;
  book.dflt += dreg;
  ++book.n;
  tuned_sum_ += tuned;
  default_sum_ += dreg;
  ++n_;
}

double OraclePricer::tuned_pct() const {
  return n_ == 0 ? 0.0 : 100.0 * tuned_sum_ / static_cast<double>(n_);
}

double OraclePricer::default_pct() const {
  return n_ == 0 ? 0.0 : 100.0 * default_sum_ / static_cast<double>(n_);
}

std::string OraclePricer::summary() const {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(1);
  out << "regret (tuned/default):";
  for (const auto& [name, b] : books_) {
    const double n = static_cast<double>(b.n);
    out << " " << name << " " << 100.0 * b.tuned / n << "%/" << 100.0 * b.dflt / n << "%,";
  }
  out << " overall " << tuned_pct() << "%/" << default_pct() << "% over " << n_ << " scenarios";
  return out.str();
}

}  // namespace perfbench
