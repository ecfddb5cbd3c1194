// Topology-aware parallel data collection (§IV-D).
//
// Given a variance-ranked list of pending benchmark points and the job's
// allocation on a Dragonfly machine, the greedy algorithm packs benchmarks
// onto disjoint node ranges such that no two benchmarks share a rack:
//   1. take the highest-variance uncollected point p (needs n nodes);
//   2. try to place p on the next n unused sequential nodes;
//   3. if it fits, mark those nodes — and all remaining nodes of the racks
//      they touch — used, and repeat;
//   4. if it does not fit, stop and run the scheduled batch in parallel.
// Sequential placement plus whole-rack retirement is what prevents layer-1
// and layer-2 congestion between co-running benchmarks.
#pragma once

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

  /// Plans one batch. `ranked` lists pool indices in decreasing priority
  /// (variance) order. Returns at least one item if the top point fits in
  /// the allocation at all.
  CollectionBatch plan(const std::vector<bench::BenchmarkPoint>& pool,
                       const std::vector<std::size_t>& ranked, const simnet::Topology& topo,
                       const simnet::Allocation& alloc) const;

 private:
  CollectionSchedulerConfig config_;
};

}  // namespace acclaim::core
