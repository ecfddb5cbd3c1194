// Topology-aware parallel data collection (§IV-D).
//
// Each acquisition round the greedy algorithm pulls picks from the
// acquisition policy one at a time and packs them onto disjoint node ranges
// of the job's allocation such that no two benchmarks share a rack:
//   1. pull the next pick p (needs n nodes);
//   2. try to place p on the next n unused sequential nodes;
//   3. if it fits, mark those nodes — and all remaining nodes of the racks
//      they touch — used, and repeat while nodes remain;
//   4. if it does not fit, stop (p stays in the pool) and run the scheduled
//      batch in parallel.
// Sequential placement plus whole-rack retirement is what prevents layer-1
// and layer-2 congestion between co-running benchmarks.
#pragma once

#include <functional>
#include <vector>

#include "core/env.hpp"
#include "simnet/allocation.hpp"
#include "simnet/topology.hpp"

namespace acclaim::core {

struct CollectionBatch {
  std::vector<ScheduledBenchmark> items;
  /// Pool indices consumed, aligned with `items`.
  std::vector<std::size_t> consumed;
};

struct CollectionSchedulerConfig {
  /// false = the naive ablation: pack sequentially with no rack
  /// disjointness, so co-running benchmarks interfere (§III-D hazard).
  bool topology_aware = true;
};

class CollectionScheduler {
 public:
  explicit CollectionScheduler(CollectionSchedulerConfig config = {});

  /// Plans one batch. `pull` returns the pool index of the next pick; the
  /// scheduler pulls while fewer than `max_items` are placed and a node is
  /// still free, and stops at the first pick that does not fit. `take`, if
  /// given, returns the point to benchmark for each placed pick before the
  /// next pull; otherwise a pick runs its pool entry. Returns at least one
  /// item if `max_items` > 0 and the first pick fits the allocation at all.
  CollectionBatch plan(const std::vector<bench::BenchmarkPoint>& pool, std::size_t max_items,
                       const std::function<std::size_t()>& pull, const simnet::Topology& topo,
                       const simnet::Allocation& alloc,
                       const std::function<bench::BenchmarkPoint(std::size_t)>& take = {}) const;

 private:
  CollectionSchedulerConfig config_;
};

}  // namespace acclaim::core
