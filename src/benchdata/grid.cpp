#include "benchdata/grid.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace acclaim::bench {

FeatureGrid FeatureGrid::p2(int max_nodes, int max_ppn, std::uint64_t min_msg,
                            std::uint64_t max_msg) {
  require(max_nodes >= 2 && util::is_power_of_two(static_cast<std::uint64_t>(max_nodes)),
          "max_nodes must be a power of two >= 2");
  require(max_ppn >= 1 && util::is_power_of_two(static_cast<std::uint64_t>(max_ppn)),
          "max_ppn must be a power of two >= 1");
  require(util::is_power_of_two(min_msg) && util::is_power_of_two(max_msg) && min_msg <= max_msg,
          "message bounds must be powers of two with min <= max");
  FeatureGrid g;
  for (const std::uint64_t n : util::doublings(2, static_cast<std::uint64_t>(max_nodes))) {
    g.nodes.push_back(static_cast<int>(n));
  }
  for (const std::uint64_t p : util::doublings(1, static_cast<std::uint64_t>(max_ppn))) {
    g.ppns.push_back(static_cast<int>(p));
  }
  g.msgs = util::doublings(min_msg, max_msg);
  return g;
}

std::uint64_t random_nonp2_near(std::uint64_t p2_anchor, util::Rng& rng) {
  require(util::is_power_of_two(p2_anchor), "anchor must be a power of two");
  require(p2_anchor >= 4, "anchor must be >= 4 for a non-P2 neighbour to exist");
  // Closest-P2 region of p: (3p/4, 3p/2). Integer candidates excluding p.
  const auto lo = static_cast<std::int64_t>(p2_anchor * 3 / 4) + 1;
  const auto hi = static_cast<std::int64_t>(p2_anchor * 3 / 2) - 1;
  std::uint64_t v;
  do {
    v = static_cast<std::uint64_t>(rng.uniform_int(lo, hi));
  } while (v == p2_anchor);
  return v;
}

FeatureGrid FeatureGrid::with_nonp2_msgs(util::Rng& rng) const {
  FeatureGrid g = *this;
  for (auto& m : g.msgs) {
    if (m >= 4) {
      m = random_nonp2_near(m, rng);
    }
  }
  std::sort(g.msgs.begin(), g.msgs.end());
  g.msgs.erase(std::unique(g.msgs.begin(), g.msgs.end()), g.msgs.end());
  return g;
}

FeatureGrid FeatureGrid::with_nonp2_nodes(util::Rng& rng) const {
  FeatureGrid g = *this;
  for (auto& n : g.nodes) {
    if (n >= 4) {
      n = static_cast<int>(random_nonp2_near(static_cast<std::uint64_t>(n), rng));
    }
  }
  std::sort(g.nodes.begin(), g.nodes.end());
  g.nodes.erase(std::unique(g.nodes.begin(), g.nodes.end()), g.nodes.end());
  return g;
}

std::vector<Scenario> FeatureGrid::scenarios(coll::Collective c) const {
  std::vector<Scenario> out;
  out.reserve(scenario_count());
  for (int n : nodes) {
    for (int p : ppns) {
      for (std::uint64_t m : msgs) {
        out.push_back(Scenario{c, n, p, m});
      }
    }
  }
  return out;
}

std::vector<BenchmarkPoint> FeatureGrid::points(coll::Collective c) const {
  const auto algs = coll::algorithms_for(c);
  std::vector<BenchmarkPoint> out;
  out.reserve(scenario_count() * algs.size());
  for (const Scenario& s : scenarios(c)) {
    for (coll::Algorithm a : algs) {
      out.push_back(BenchmarkPoint{s, a});
    }
  }
  return out;
}

}  // namespace acclaim::bench
