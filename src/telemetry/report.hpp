// Run reports: fold a trace into a human-readable summary.
//
// The report builder consumes the events a tuning run emitted (from the
// in-memory ring or a JSON-lines file) and aggregates exactly the
// quantities the paper's practicality argument rests on: where training
// time went per collective, how many points each model needed, how the
// convergence signal (cumulative jackknife variance) moved, and how well
// the topology-aware scheduler packed parallel batches.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "telemetry/trace.hpp"

namespace acclaim::telemetry {

struct RunReport {
  /// One row per Phase event (per-collective training phases and any other
  /// scoped phase the run emitted), in trace order.
  struct PhaseRow {
    std::string label;
    double sim_s = 0.0;   ///< simulated collection seconds ("sim_s" field)
    double wall_ms = 0.0; ///< host wall clock ("wall_ms" field)
    std::int64_t points = -1;
    std::int64_t iterations = -1;
    bool converged = false;
    bool has_outcome = false;  ///< points/iterations/converged fields present
  };

  /// Variance-trajectory sample from a training_iteration event.
  struct VarianceSample {
    int iteration = 0;
    std::size_t points = 0;
    double variance = 0.0;
    double ema = 0.0;
    int batch_size = 1;
  };

  std::vector<PhaseRow> phases;
  double total_sim_s = 0.0;  ///< sum of phase sim_s

  /// Per-collective variance trajectory, keyed by event label.
  std::map<std::string, std::vector<VarianceSample>> trajectories;

  /// Scheduler batch-size occupancy: batch size -> number of batches.
  std::map<int, std::uint64_t> batch_histogram;

  /// Events seen, by kind name (includes kinds not otherwise aggregated).
  std::map<std::string, std::uint64_t> event_counts;

  std::uint64_t benchmark_runs = 0;
  double benchmark_sim_cost_s = 0.0;  ///< summed benchmark "cost_s" fields
  std::uint64_t model_refits = 0;
  std::uint64_t points_acquired = 0;
  std::uint64_t nonp2_swaps = 0;
};

/// Aggregates a trace (any event order; events of irrelevant kinds are
/// counted but otherwise ignored).
RunReport build_report(const std::vector<TraceEvent>& events);

/// Renders the report as aligned text tables (util::TablePrinter): event
/// summary, phase timing, per-collective variance trajectory (sampled down
/// to at most `max_trajectory_rows` rows per collective), and the
/// batch-size histogram.
void render_report(const RunReport& report, std::ostream& os, int max_trajectory_rows = 12);

/// Renders a metrics snapshot (the JSON shape MetricsRegistry::to_json /
/// --metrics-out produce): non-zero counters and gauges, plus one row per
/// histogram with count, mean, and p50/p95/p99 estimated from the log2
/// bucket counts (percentile_from_buckets). Throws InvalidArgument when the
/// document is not a metrics snapshot.
void render_metrics_summary(const util::Json& metrics_doc, std::ostream& os);

/// Loads a --metrics-out snapshot for render_metrics_summary, turning every
/// failure mode into one clear InvalidArgument line naming the path: file
/// missing or unreadable, file empty, JSON malformed, or JSON valid but not
/// a metrics snapshot (missing counters/gauges/histograms objects).
util::Json load_metrics_snapshot(const std::string& path);

/// Converts a trace to the chrome://tracing / Perfetto JSON object format
/// ({"traceEvents": [...]}, timestamps in microseconds since the tracer
/// epoch):
///  * Phase events become complete ("X") spans — their recorded `wall_ms`
///    duration ends at the event's timestamp — on thread lane 0;
///  * batched BenchmarkRun events (a `slot` field, as emitted by
///    LiveEnvironment::measure_scheduled) become complete spans of their
///    `wall_ms` host duration on lane slot+1, one lane per batch slot;
///  * every other event becomes an instant ("i") event on lane 0.
/// All original fields ride along under "args".
util::Json chrome_trace_json(const std::vector<TraceEvent>& events);

/// Serializes chrome_trace_json(events) to `path`. Throws IoError when the
/// file cannot be written.
void write_chrome_trace(const std::vector<TraceEvent>& events, const std::string& path);

}  // namespace acclaim::telemetry
