#include "core/feature_space.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace acclaim::core {

ml::FeatureRow encode_point(const bench::BenchmarkPoint& p) {
  // The one-hot slot is the algorithm's position in algorithms_for()'s
  // list, which is built once: every sweep row is encoded.
  const std::vector<coll::Algorithm>& algs = coll::algorithms_for(p.scenario.collective);
  const auto it = std::find(algs.begin(), algs.end(), p.algorithm);
  require(it != algs.end(), "algorithm does not implement the point's collective");
  // Log2 axes plus a one-hot algorithm block: one-hot lets a tree isolate
  // any algorithm with a single split, which matters because algorithms of
  // the same collective can differ by an order of magnitude at the same
  // (nodes, ppn, msg) point.
  ml::FeatureRow row(3 + algs.size(), 0.0);
  row[0] = std::log2(static_cast<double>(p.scenario.nnodes));
  row[1] = std::log2(static_cast<double>(p.scenario.ppn));
  row[2] = std::log2(static_cast<double>(p.scenario.msg_bytes));
  row[3 + static_cast<std::size_t>(it - algs.begin())] = 1.0;
  return row;
}

FeatureSpace::FeatureSpace(std::vector<int> nodes, std::vector<int> ppns,
                           std::vector<std::uint64_t> msgs)
    : nodes_(std::move(nodes)), ppns_(std::move(ppns)), msgs_(std::move(msgs)) {
  require(!nodes_.empty() && !ppns_.empty() && !msgs_.empty(),
          "feature space requires non-empty axes");
  std::sort(nodes_.begin(), nodes_.end());
  std::sort(ppns_.begin(), ppns_.end());
  std::sort(msgs_.begin(), msgs_.end());
}

FeatureSpace FeatureSpace::from_grid(const bench::FeatureGrid& grid) {
  return FeatureSpace(grid.nodes, grid.ppns, grid.msgs);
}

std::vector<bench::BenchmarkPoint> FeatureSpace::candidates(coll::Collective c) const {
  bench::FeatureGrid g;
  g.nodes = nodes_;
  g.ppns = ppns_;
  g.msgs = msgs_;
  return g.points(c);
}

ml::ProductGrid FeatureSpace::grid(coll::Collective c) const {
  const std::vector<coll::Algorithm>& algs = coll::algorithms_for(c);
  ml::ProductGrid g;
  g.members = {nodes_.size(), ppns_.size(), msgs_.size(), algs.size()};
  for (const std::size_t m : g.members) {
    require(m <= ml::ProductGrid::kMaxMembers, "candidate axis has too many values for a grid");
  }
  // encode_point's layout: features 0-2 are the nodes, ppn and msg axes,
  // the rest the one-hot block over the algorithms.
  g.features.resize(num_features(c));
  for (std::size_t f = 0; f < g.features.size(); ++f) {
    g.features[f].group = std::min<std::size_t>(f, 3);
  }
  // Member m of group k: the first candidate with its group-k coordinate
  // moved to m, encoded.
  const bench::BenchmarkPoint first{bench::Scenario{c, nodes_[0], ppns_[0], msgs_[0]}, algs[0]};
  for (std::size_t k = 0; k < g.members.size(); ++k) {
    for (std::size_t m = 0; m < g.members[k]; ++m) {
      bench::BenchmarkPoint p = first;
      if (k == 0) {
        p.scenario.nnodes = nodes_[m];
      } else if (k == 1) {
        p.scenario.ppn = ppns_[m];
      } else if (k == 2) {
        p.scenario.msg_bytes = msgs_[m];
      } else {
        p.algorithm = algs[m];
      }
      const ml::FeatureRow row = encode_point(p);
      for (std::size_t f = 0; f < row.size(); ++f) {
        if (g.features[f].group == k) {
          g.features[f].values.push_back(row[f]);
        }
      }
    }
  }
  return g;
}

std::vector<bench::Scenario> FeatureSpace::scenarios(coll::Collective c) const {
  bench::FeatureGrid g;
  g.nodes = nodes_;
  g.ppns = ppns_;
  g.msgs = msgs_;
  return g.scenarios(c);
}

std::pair<std::uint64_t, std::uint64_t> FeatureSpace::msg_neighbors(std::uint64_t msg) const {
  std::uint64_t below = 0;
  std::uint64_t above = 0;
  for (std::uint64_t m : msgs_) {
    if (m < msg) {
      below = m;
    } else if (m > msg) {
      above = m;
      break;
    }
  }
  return {below, above};
}

}  // namespace acclaim::core
