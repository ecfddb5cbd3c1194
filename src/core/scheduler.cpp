#include "core/scheduler.hpp"

#include <map>

#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/trace.hpp"
#include "util/error.hpp"

namespace acclaim::core {

CollectionScheduler::CollectionScheduler(CollectionSchedulerConfig config) : config_(config) {}

CollectionBatch CollectionScheduler::plan(const std::vector<bench::BenchmarkPoint>& pool,
                                          std::size_t max_items,
                                          const std::function<std::size_t()>& pull,
                                          const simnet::Topology& topo,
                                          const simnet::Allocation& alloc,
                                          const std::function<bench::BenchmarkPoint(std::size_t)>&
                                              take) const {
  telemetry::ScopedTimer timer("scheduler.plan");
  CollectionBatch batch;
  // Nodes are consumed strictly left-to-right in allocation order, so the
  // used region is always a prefix and `cursor` fully describes it.
  int cursor = 0;
  std::size_t pulled = 0;
  while (batch.items.size() < max_items && cursor < alloc.num_nodes()) {
    const std::size_t pri = pull();
    ++pulled;
    require(pri < pool.size(), "pulled index out of pool range");
    const int need = pool[pri].scenario.nnodes;
    if (cursor + need > alloc.num_nodes()) {
      break;  // the paper's greedy stops at the first misfit
    }
    batch.items.push_back(ScheduledBenchmark{take ? take(pri) : pool[pri], cursor});
    batch.consumed.push_back(pri);
    cursor += need;
    if (config_.topology_aware) {
      // Retire the remaining nodes of every rack the placement touched:
      // advance past all allocation nodes whose rack is <= the last rack
      // used. (Node ids — and hence racks — increase with allocation index.)
      const int last_rack = topo.rack_of(alloc.node(cursor - 1));
      while (cursor < alloc.num_nodes() && topo.rack_of(alloc.node(cursor)) <= last_rack) {
        ++cursor;
      }
    }
  }

  static telemetry::Counter& candidates =
      telemetry::metrics().counter("scheduler.candidates_considered");
  candidates.add(static_cast<std::uint64_t>(pulled));
  if (!batch.items.empty()) {
    static telemetry::Counter& batches = telemetry::metrics().counter("scheduler.batches");
    static telemetry::Counter& placed = telemetry::metrics().counter("scheduler.placements");
    static telemetry::Histogram& sizes =
        telemetry::metrics().histogram("scheduler.batch_size", {1.0, 12});
    static telemetry::Histogram& occupancy =
        telemetry::metrics().histogram("scheduler.batch_occupancy", {1.0 / 256, 10});
    batches.add();
    placed.add(static_cast<std::uint64_t>(batch.items.size()));
    sizes.observe(static_cast<double>(batch.items.size()));
    int occupied = 0;
    for (const ScheduledBenchmark& item : batch.items) {
      occupied += item.point.scenario.nnodes;
    }
    occupancy.observe(static_cast<double>(occupied) /
                      static_cast<double>(alloc.num_nodes()));
    if (telemetry::tracer().enabled()) {
      int nodes_used = 0;
      // Allocation fragments: maximal runs of consecutively-placed
      // benchmarks; gaps come from whole-rack retirement.
      int fragments = 0;
      int expected_next = -1;
      for (const ScheduledBenchmark& item : batch.items) {
        nodes_used += item.point.scenario.nnodes;
        if (item.first_node != expected_next) {
          ++fragments;
        }
        expected_next = item.first_node + item.point.scenario.nnodes;
      }
      // Contention estimate: racks touched by more than one co-running
      // benchmark (always 0 for the topology-aware greedy, the §III-D
      // hazard count for the naive ablation).
      int shared_racks = 0;
      std::map<int, bool> rack_seen;
      for (const ScheduledBenchmark& item : batch.items) {
        std::map<int, bool> mine;
        for (int k = 0; k < item.point.scenario.nnodes; ++k) {
          mine[topo.rack_of(alloc.node(item.first_node + k))] = true;
        }
        for (const auto& [rack, _] : mine) {
          if (rack_seen[rack]) {
            ++shared_racks;
          }
          rack_seen[rack] = true;
        }
      }
      telemetry::TraceEvent ev;
      ev.kind = telemetry::EventKind::BatchScheduled;
      ev.fields["batch_size"] = batch.items.size();
      ev.fields["nodes_used"] = nodes_used;
      ev.fields["nodes_retired"] = cursor - nodes_used;
      ev.fields["alloc_nodes"] = alloc.num_nodes();
      ev.fields["fragments"] = fragments;
      ev.fields["shared_racks"] = shared_racks;
      ev.fields["topology_aware"] = config_.topology_aware;
      ev.fields["candidates"] = pulled;
      telemetry::tracer().record(std::move(ev));
    }
  }
  return batch;
}

}  // namespace acclaim::core
