// The autotuner's feature space and its ML encoding.
//
// Features are the paper's three programmatic variables — number of nodes,
// processes per node, message size — plus (following §V) "algorithm" as an
// additional feature so one random forest per collective covers all of that
// collective's algorithms. Axis values are log2-transformed, which makes the
// doubling grids equidistant for the trees.
#pragma once

#include <cstdint>
#include <vector>

#include "benchdata/grid.hpp"
#include "benchdata/point.hpp"
#include "ml/forest.hpp"

namespace acclaim::core {

/// Encodes a benchmark point as {log2 nodes, log2 ppn, log2 msg} followed by
/// a one-hot block over the collective's algorithms.
ml::FeatureRow encode_point(const bench::BenchmarkPoint& p);

/// Number of features produced by encode_point for a collective.
inline std::size_t num_features(coll::Collective c) {
  return 3 + coll::algorithms_for(c).size();
}

/// The power-of-two training-candidate axes. The jackknife acquisition only
/// scores P2 points ("we include P2 feature values only when using jackknife
/// to limit the number of calculations", §IV-A); non-P2 variants are derived
/// on demand from these anchors.
class FeatureSpace {
 public:
  FeatureSpace(std::vector<int> nodes, std::vector<int> ppns,
               std::vector<std::uint64_t> msgs);

  /// Uses the grid's axes directly (they should be the P2 axes).
  static FeatureSpace from_grid(const bench::FeatureGrid& grid);

  const std::vector<int>& nodes() const noexcept { return nodes_; }
  const std::vector<int>& ppns() const noexcept { return ppns_; }
  const std::vector<std::uint64_t>& msgs() const noexcept { return msgs_; }

  /// All candidate training points of one collective (scenario x algorithm).
  std::vector<bench::BenchmarkPoint> candidates(coll::Collective c) const;

  /// The same candidates as an encoded product grid, the input of every
  /// candidate sweep: groups nodes, ppn, msg and algorithm, in candidates()'s
  /// order, so row i encodes candidates(c)[i]. The groups follow
  /// encode_point's layout (one log2 axis each, the one-hot block for the
  /// algorithm), and each member's values are those encode_point gives a
  /// point at that member. Throws InvalidArgument when an axis has more than
  /// ml::ProductGrid::kMaxMembers values.
  ml::ProductGrid grid(coll::Collective c) const;

  /// All scenarios of one collective.
  std::vector<bench::Scenario> scenarios(coll::Collective c) const;

  /// The P2 message sizes adjacent to `msg` in this space: the largest axis
  /// value < msg and the smallest > msg (0 if none).
  std::pair<std::uint64_t, std::uint64_t> msg_neighbors(std::uint64_t msg) const;

 private:
  std::vector<int> nodes_;
  std::vector<int> ppns_;
  std::vector<std::uint64_t> msgs_;
};

}  // namespace acclaim::core
