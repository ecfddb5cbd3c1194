#include "telemetry/report.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "telemetry/metrics.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace acclaim::telemetry {

namespace {

double num_field(const TraceEvent& ev, const char* key, double fallback = 0.0) {
  const std::string k(key);
  if (!ev.fields.contains(k)) {
    return fallback;
  }
  const util::Json& v = ev.fields.at(k);
  return v.is_number() ? v.as_number() : fallback;
}

bool bool_field(const TraceEvent& ev, const char* key) {
  const std::string k(key);
  return ev.fields.contains(k) && ev.fields.at(k).is_bool() && ev.fields.at(k).as_bool();
}

/// A whole number in [0, 2^64): what the renderers may cast to uint64_t.
bool is_count(const util::Json& v) {
  if (!v.is_number()) {
    return false;
  }
  const double d = v.as_number();
  return d >= 0.0 && d < 18446744073709551616.0 && std::trunc(d) == d;
}

}  // namespace

RunReport build_report(const std::vector<TraceEvent>& events) {
  RunReport report;
  for (const TraceEvent& ev : events) {
    ++report.event_counts[event_kind_name(ev.kind)];
    switch (ev.kind) {
      case EventKind::Phase: {
        RunReport::PhaseRow row;
        row.label = ev.label;
        row.sim_s = num_field(ev, "sim_s");
        row.wall_ms = num_field(ev, "wall_ms");
        if (ev.fields.contains("points")) {
          row.points = static_cast<std::int64_t>(num_field(ev, "points"));
          row.iterations = static_cast<std::int64_t>(num_field(ev, "iterations"));
          row.converged = bool_field(ev, "converged");
          row.has_outcome = true;
        }
        report.total_sim_s += row.sim_s;
        report.phases.push_back(std::move(row));
        break;
      }
      case EventKind::TrainingIteration: {
        RunReport::VarianceSample s;
        s.iteration = static_cast<int>(num_field(ev, "iteration"));
        s.points = static_cast<std::size_t>(num_field(ev, "points"));
        s.variance = num_field(ev, "variance");
        s.ema = num_field(ev, "variance_ema");
        s.batch_size = static_cast<int>(num_field(ev, "batch_size", 1.0));
        report.trajectories[ev.label].push_back(s);
        break;
      }
      case EventKind::BatchScheduled:
        ++report.batch_histogram[static_cast<int>(num_field(ev, "batch_size", 1.0))];
        break;
      case EventKind::BenchmarkRun:
        ++report.benchmark_runs;
        report.benchmark_sim_cost_s += num_field(ev, "cost_s");
        break;
      case EventKind::ModelRefit:
        ++report.model_refits;
        break;
      case EventKind::PointAcquired:
        ++report.points_acquired;
        if (bool_field(ev, "nonp2")) {
          ++report.nonp2_swaps;
        }
        break;
      case EventKind::ConvergenceCheck:
      case EventKind::FleetJob:
        break;
    }
  }
  return report;
}

void render_report(const RunReport& report, std::ostream& os, int max_trajectory_rows) {
  os << "=== run summary ===\n";
  {
    util::TablePrinter table({"events", "count"});
    for (const auto& [name, count] : report.event_counts) {
      table.add_row({name, std::to_string(count)});
    }
    table.print(os);
  }
  os << "\nbenchmark runs: " << report.benchmark_runs << " ("
     << util::format_seconds(report.benchmark_sim_cost_s) << " simulated)"
     << "  model refits: " << report.model_refits << "  points acquired: "
     << report.points_acquired << " (" << report.nonp2_swaps << " non-P2 swaps)\n";

  if (!report.phases.empty()) {
    os << "\n=== phase timing ===\n";
    util::TablePrinter table({"phase", "sim time", "wall", "points", "iters", "converged"});
    for (const auto& p : report.phases) {
      table.add_row({p.label, util::format_seconds(p.sim_s),
                     util::fixed(p.wall_ms, 1) + " ms",
                     p.has_outcome ? std::to_string(p.points) : "-",
                     p.has_outcome ? std::to_string(p.iterations) : "-",
                     p.has_outcome ? (p.converged ? "yes" : "no") : "-"});
    }
    table.print(os);
    os << "total simulated training: " << util::format_seconds(report.total_sim_s) << "\n";
  }

  for (const auto& [collective, samples] : report.trajectories) {
    os << "\n=== variance trajectory: " << collective << " ===\n";
    util::TablePrinter table({"iter", "points", "cum. variance", "ema", "batch"});
    // Sample evenly but always keep the first and last iteration — the
    // endpoints are what convergence questions are about.
    const std::size_t n = samples.size();
    const std::size_t rows = std::min<std::size_t>(
        n, static_cast<std::size_t>(std::max(2, max_trajectory_rows)));
    for (std::size_t r = 0; r < rows; ++r) {
      const std::size_t i = rows == 1 ? 0 : r * (n - 1) / (rows - 1);
      const auto& s = samples[i];
      table.add_row({std::to_string(s.iteration), std::to_string(s.points),
                     util::fixed(s.variance, 6), util::fixed(s.ema, 6),
                     std::to_string(s.batch_size)});
    }
    table.print(os);
  }

  if (!report.batch_histogram.empty()) {
    os << "\n=== scheduler batch occupancy ===\n";
    std::uint64_t peak = 0;
    for (const auto& [size, count] : report.batch_histogram) {
      peak = std::max(peak, count);
    }
    util::TablePrinter table({"batch size", "batches", ""});
    for (const auto& [size, count] : report.batch_histogram) {
      const std::size_t bar =
          peak == 0 ? 0 : static_cast<std::size_t>(1 + 29 * (count - 1) / std::max<std::uint64_t>(peak, 1));
      table.add_row({std::to_string(size), std::to_string(count), std::string(bar, '#')});
    }
    table.print(os);
  }
}

void render_metrics_summary(const util::Json& metrics_doc, std::ostream& os) {
  require(metrics_doc.is_object() && metrics_doc.contains("histograms") &&
              metrics_doc.contains("counters") && metrics_doc.contains("gauges"),
          "not a metrics snapshot (expected counters/gauges/histograms)");

  const auto fmt = [](double v) {
    if (std::isnan(v)) {
      return std::string("-");
    }
    return util::fixed(v, v < 10.0 ? 4 : 1);
  };

  os << "=== metrics: counters & gauges ===\n";
  {
    util::TablePrinter table({"instrument", "value"});
    for (const auto& [name, value] : metrics_doc.at("counters").as_object()) {
      // Never-touched instruments report exactly 0.
      if (value.as_number() != 0.0) {
        table.add_row({name, std::to_string(static_cast<std::uint64_t>(value.as_number()))});
      }
    }
    for (const auto& [name, value] : metrics_doc.at("gauges").as_object()) {
      // Never-touched instruments report exactly 0.
      if (value.as_number() != 0.0) {
        table.add_row({name, fmt(value.as_number())});
      }
    }
    table.print(os);
  }

  os << "\n=== metrics: histogram percentiles ===\n";
  util::TablePrinter table({"histogram", "count", "mean", "p50", "p95", "p99", "max"});
  for (const auto& [name, h] : metrics_doc.at("histograms").as_object()) {
    const auto count = static_cast<std::uint64_t>(h.at("count").as_number());
    if (count == 0) {
      continue;
    }
    std::vector<BucketSlice> slices;
    for (const util::Json& b : h.at("buckets").as_array()) {
      BucketSlice s;
      // The overflow bucket serializes its bound as the string "inf".
      s.le = b.at("le").is_number() ? b.at("le").as_number()
                                    : std::numeric_limits<double>::infinity();
      s.n = static_cast<std::uint64_t>(b.at("n").as_number());
      slices.push_back(s);
    }
    const double min_v = h.contains("min") ? h.at("min").as_number() : 0.0;
    const double max_v = h.contains("max") ? h.at("max").as_number() : 0.0;
    table.add_row({name, std::to_string(count),
                   fmt(h.contains("mean") ? h.at("mean").as_number() : 0.0),
                   fmt(percentile_from_buckets(slices, count, min_v, max_v, 0.50)),
                   fmt(percentile_from_buckets(slices, count, min_v, max_v, 0.95)),
                   fmt(percentile_from_buckets(slices, count, min_v, max_v, 0.99)),
                   fmt(max_v)});
  }
  table.print(os);
}

util::Json load_metrics_snapshot(const std::string& path) {
  util::Json doc;
  try {
    doc = util::Json::parse_file(path);
  } catch (const IoError&) {
    throw InvalidArgument("metrics file missing or unreadable: " + path);
  } catch (const ParseError& e) {
    throw InvalidArgument("metrics file is not valid JSON: " + path + " (" + e.what() + ")");
  }
  if (!doc.is_object() || !doc.contains("counters") || !doc.contains("gauges") ||
      !doc.contains("histograms") || !doc.at("counters").is_object() ||
      !doc.at("histograms").is_object()) {
    throw InvalidArgument("metrics file is not a metrics snapshot (expected "
                          "counters/gauges/histograms objects): " +
                          path);
  }
  const auto not_a_count = [&](const std::string& what) {
    return InvalidArgument("metrics file " + path + ": " + what +
                           " is not a whole number in [0, 2^64)");
  };
  for (const auto& [name, value] : doc.at("counters").as_object()) {
    if (!is_count(value)) {
      throw not_a_count("counter '" + name + "'");
    }
  }
  for (const auto& [name, h] : doc.at("histograms").as_object()) {
    if (!h.contains("count") || !is_count(h.at("count"))) {
      throw not_a_count("histogram '" + name + "' count");
    }
    if (!h.contains("buckets") || !h.at("buckets").is_array()) {
      throw InvalidArgument("metrics file " + path + ": histogram '" + name +
                            "' has no buckets array");
    }
    for (const util::Json& bucket : h.at("buckets").as_array()) {
      if (!bucket.contains("n") || !is_count(bucket.at("n"))) {
        throw not_a_count("a bucket 'n' of histogram '" + name + "'");
      }
    }
  }
  return doc;
}

util::Json chrome_trace_json(const std::vector<TraceEvent>& events) {
  util::JsonArray out;
  for (const TraceEvent& ev : events) {
    util::JsonObject e;
    e["name"] = ev.label.empty() ? std::string(event_kind_name(ev.kind)) : ev.label;
    e["cat"] = event_kind_name(ev.kind);
    const double wall_ms = num_field(ev, "wall_ms", -1.0);
    const bool batched = ev.kind == EventKind::BenchmarkRun && ev.fields.contains("slot");
    const bool span = wall_ms >= 0.0 && (ev.kind == EventKind::Phase || batched);
    if (span) {
      // Durations are recorded at scope exit, so the span *ends* at the
      // event timestamp; clamp the start at the epoch for events whose
      // duration predates tracer startup, shrinking the duration so the span
      // still ends at the recorded event time.
      e["ph"] = "X";
      const double end_us = ev.t_wall_ms * 1000.0;
      const double start_us = std::max(0.0, end_us - wall_ms * 1000.0);
      e["ts"] = start_us;
      e["dur"] = end_us - start_us;
    } else {
      e["ph"] = "i";
      e["ts"] = ev.t_wall_ms * 1000.0;
      e["s"] = "t";  // instant scope: thread
    }
    e["pid"] = 1;
    e["tid"] = batched ? static_cast<int>(num_field(ev, "slot")) + 1 : 0;
    util::JsonObject args;
    for (const auto& [key, value] : ev.fields) {
      args[key] = value;
    }
    e["args"] = std::move(args);
    out.push_back(util::Json(std::move(e)));
  }
  util::JsonObject doc;
  doc["traceEvents"] = std::move(out);
  doc["displayTimeUnit"] = "ms";
  return util::Json(std::move(doc));
}

void write_chrome_trace(const std::vector<TraceEvent>& events, const std::string& path) {
  chrome_trace_json(events).dump_file(path);
}

}  // namespace acclaim::telemetry
