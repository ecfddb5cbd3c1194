#include "core/env.hpp"

#include <algorithm>
#include <set>

#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/trace.hpp"
#include "util/error.hpp"

namespace acclaim::core {

namespace {

/// Extra concurrent flows each co-running benchmark injects into a rack
/// uplink / global pair it shares with another; only a schedule that breaks
/// the disjointness rules (fig13's naive ablation scheduler) shares any.
constexpr int kInterferenceFlows = 6;

/// Shared benchmark accounting for every environment implementation: the
/// `benchmark_runs` counter / cost gauge the CLI exports and the per-run
/// trace event the report builder folds into its totals. `slot` >= 0 marks
/// a batched run and becomes the trace viewer's lane id; `wall_ms` >= 0
/// attaches the item's host execution time (span duration in the
/// chrome://tracing export).
void note_benchmark(const char* source, const bench::BenchmarkPoint& point,
                    const bench::Measurement& m, int slot = -1, double wall_ms = -1.0) {
  static telemetry::Counter& runs = telemetry::metrics().counter("benchmark_runs");
  static telemetry::Gauge& cost = telemetry::metrics().gauge("benchmark_sim_cost_s");
  runs.add();
  cost.add(m.collect_cost_s);
  if (telemetry::tracer().enabled()) {
    telemetry::TraceEvent ev;
    ev.kind = telemetry::EventKind::BenchmarkRun;
    ev.label = coll::collective_name(point.scenario.collective);
    ev.fields["source"] = source;
    ev.fields["nnodes"] = point.scenario.nnodes;
    ev.fields["ppn"] = point.scenario.ppn;
    ev.fields["msg_bytes"] = point.scenario.msg_bytes;
    ev.fields["mean_us"] = m.mean_us;
    ev.fields["cost_s"] = m.collect_cost_s;
    if (slot >= 0) {
      ev.fields["slot"] = slot;
    }
    if (wall_ms >= 0.0) {
      ev.fields["wall_ms"] = wall_ms;
    }
    telemetry::tracer().record(std::move(ev));
  }
}

}  // namespace

std::vector<bench::Measurement> TuningEnvironment::measure_scheduled(
    const std::vector<ScheduledBenchmark>& batch) {
  std::vector<bench::Measurement> out;
  out.reserve(batch.size());
  for (const ScheduledBenchmark& item : batch) {
    out.push_back(measure(item.point));
  }
  return out;
}

namespace {

/// Random non-P2 value near the anchor drawn from an explicit pool.
std::optional<std::uint64_t> pick_nonp2_from(const std::vector<std::uint64_t>& sorted_msgs,
                                             std::uint64_t p2_anchor, util::Rng& rng) {
  // Same closest-P2 window as bench::random_nonp2_near.
  const std::uint64_t lo = p2_anchor * 3 / 4;
  const std::uint64_t hi = p2_anchor * 3 / 2;
  std::vector<std::uint64_t> pool;
  for (std::uint64_t m : sorted_msgs) {
    if (m > lo && m < hi && m != p2_anchor) {
      pool.push_back(m);
    }
  }
  if (pool.empty()) {
    return std::nullopt;
  }
  return pool[rng.index(pool.size())];
}

}  // namespace

DatasetEnvironment::DatasetEnvironment(const bench::Dataset& dataset) : dataset_(dataset) {
  for (coll::Collective c : coll::all_collectives()) {
    msgs_[static_cast<int>(c)] = dataset.message_sizes(c);
  }
}

bench::Measurement DatasetEnvironment::measure(const bench::BenchmarkPoint& point) {
  const bench::Measurement& m = dataset_.at(point);  // throws if absent
  charge_s(m.collect_cost_s);
  note_benchmark("dataset", point, m);
  return m;
}

std::optional<std::uint64_t> DatasetEnvironment::nonp2_msg_near(std::uint64_t p2_anchor,
                                                                util::Rng& rng) {
  // Use the union over collectives: message axes are shared in our datasets.
  std::set<std::uint64_t> all;
  for (const auto& [c, msgs] : msgs_) {
    all.insert(msgs.begin(), msgs.end());
  }
  const std::vector<std::uint64_t> sorted(all.begin(), all.end());
  return pick_nonp2_from(sorted, p2_anchor, rng);
}

LiveEnvironment::LiveEnvironment(const simnet::Topology& topo, const simnet::Allocation& alloc,
                                 std::uint64_t job_seed)
    : topo_(topo),
      alloc_(alloc),
      net_(topo, job_seed),
      mb_(net_),
      noise_seed_(job_seed ^ 0xa5a5a5a5deadbeefULL) {}

bench::Measurement LiveEnvironment::measure(const bench::BenchmarkPoint& point) {
  util::Rng point_rng = util::Rng::stream(noise_seed_, measure_seq_++);
  const bench::Measurement m = mb_.run(point, alloc_, point_rng);
  charge_s(m.collect_cost_s);
  note_benchmark("live", point, m);
  return m;
}

std::vector<bench::Measurement> LiveEnvironment::measure_scheduled(
    const std::vector<ScheduledBenchmark>& batch) {
  require(!batch.empty(), "measure_scheduled requires a non-empty batch");

  // Which racks / pairs each co-running benchmark occupies, plus the
  // interference flows concurrent benchmarks inject into every rack / pair
  // they share with it. A disjoint schedule (the §IV-D greedy guarantees
  // rack disjointness) sees none of this.
  std::vector<simnet::RegionFootprint> feet(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const auto& item = batch[i];
    require(item.first_node >= 0 &&
                item.first_node + item.point.scenario.nnodes <= alloc_.num_nodes(),
            "scheduled benchmark exceeds the job allocation");
    feet[i] = alloc_.footprint(topo_, item.first_node, item.point.scenario.nnodes);
  }
  std::vector<minimpi::FlowMap> rack_flows(batch.size());
  std::vector<minimpi::FlowMap> pair_flows(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    for (std::size_t j = 0; j < batch.size(); ++j) {
      if (j == i) {
        continue;
      }
      for (int r : feet[j].racks) {
        if (feet[i].racks.count(r)) {
          rack_flows[i][r] += kInterferenceFlows;
        }
      }
      for (int p : feet[j].pairs) {
        if (feet[i].pairs.count(p)) {
          pair_flows[i][p] += kInterferenceFlows;
        }
      }
    }
  }

  // Simulate the items in batch order on their allocation slices; each takes
  // the next noise stream, exactly as measuring them one by one would. The
  // batch's collection time is its makespan: the items run concurrently on
  // the simulated machine.
  std::vector<bench::Measurement> out;
  out.reserve(batch.size());
  double makespan_s = 0.0;
  double batch_wall_ms = 0.0;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const ScheduledBenchmark& item = batch[i];
    const telemetry::Span span("env.measure");
    util::Rng rng = util::Rng::stream(noise_seed_, measure_seq_++);
    const simnet::Allocation sub = alloc_.slice(item.first_node, item.point.scenario.nnodes);
    out.push_back(mb_.run_with_load(item.point, sub, rack_flows[i], pair_flows[i], rng));
    const double wall_ms = span.elapsed_ms();
    batch_wall_ms += wall_ms;
    makespan_s = std::max(makespan_s, out.back().collect_cost_s);
    note_benchmark("live-parallel", item.point, out.back(), static_cast<int>(i), wall_ms);
  }
  charge_s(makespan_s);

  static telemetry::Counter& batches = telemetry::metrics().counter("simnet.parallel_batches");
  static telemetry::Counter& items = telemetry::metrics().counter("simnet.batch_items");
  static telemetry::Histogram& wall =
      telemetry::metrics().histogram("simnet.batch_wall_ms", {1.0 / 16, 16});
  batches.add();
  items.add(static_cast<std::uint64_t>(batch.size()));
  wall.observe(batch_wall_ms);
  return out;
}

double LiveEnvironment::predicted_solo_us(const ScheduledBenchmark& item) const {
  require(item.first_node >= 0 &&
              item.first_node + item.point.scenario.nnodes <= alloc_.num_nodes(),
          "scheduled benchmark exceeds the job allocation");
  const simnet::Allocation sub = alloc_.slice(item.first_node, item.point.scenario.nnodes);
  return mb_.schedule_time_us(item.point, sub);
}

std::optional<std::uint64_t> LiveEnvironment::nonp2_msg_near(std::uint64_t p2_anchor,
                                                             util::Rng& rng) {
  if (p2_anchor < 4) {
    return std::nullopt;
  }
  return bench::random_nonp2_near(p2_anchor, rng);
}

}  // namespace acclaim::core
