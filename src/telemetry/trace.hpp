// Structured tracing for the autotuning pipeline.
//
// Instrumented code emits typed events (one per training iteration,
// acquisition pick, scheduled batch, benchmark run, model refit,
// convergence check, and pipeline phase) into the process-wide Tracer.
// Recording is off by default — a single relaxed atomic load gates every
// site — and can be turned on two ways, independently (telemetry/sink.hpp):
//  * enable_ring(n): keep the last n events in memory (tests, the report
//    builder after an in-process run);
//  * open_stream(path): append every event as one compact JSON object per
//    line (JSON-lines), the format `acclaim report` consumes.
// Events carry a wall-clock timestamp relative to the tracer epoch plus a
// free-form field object; the fields that matter to the report builder are
// documented per event kind in DESIGN.md ("Observability").
#pragma once

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "telemetry/sink.hpp"
#include "util/json.hpp"

namespace acclaim::telemetry {

enum class EventKind {
  TrainingIteration,  ///< one active-learning iteration completed
  PointAcquired,      ///< acquisition policy picked a benchmark point
  BatchScheduled,     ///< parallel-collection scheduler planned a batch
  BenchmarkRun,       ///< environment measured one benchmark point
  ModelRefit,         ///< primary model retrained
  ConvergenceCheck,   ///< variance-convergence criterion evaluated
  Phase,              ///< a timed pipeline phase (per-collective training, ...)
  FleetJob,           ///< one fleet-replay job finished tuning
};

const char* event_kind_name(EventKind kind);
/// Inverse of event_kind_name; nullopt for unknown names (the trace format
/// is forward-compatible: readers skip kinds they do not know).
std::optional<EventKind> parse_event_kind(const std::string& name);

struct TraceEvent {
  EventKind kind = EventKind::Phase;
  /// Subject of the event — the collective being trained for most kinds,
  /// the phase name for Phase events.
  std::string label;
  /// Wall-clock milliseconds since the tracer epoch.
  double t_wall_ms = 0.0;
  /// Kind-specific payload (numbers, strings, bools).
  util::JsonObject fields;

  /// Flat object: {"event": .., "t_ms": .., "label": .., <fields>...}.
  util::Json to_json() const;
  /// Inverse of to_json; throws InvalidArgument on unknown event kinds.
  static TraceEvent from_json(const util::Json& doc);
};

/// The process-wide event sink: a RecordSink that stamps each event's
/// `t_ms` (wall-clock milliseconds since the tracer epoch) as it delivers it.
class Tracer : public RecordSink<TraceEvent> {
 public:
  /// The process-wide tracer all instrumented library code records into.
  static Tracer& global();

  void record(TraceEvent ev);

 private:
  Tracer();

  std::chrono::steady_clock::time_point epoch_;
};

/// Shorthand for Tracer::global().
inline Tracer& tracer() { return Tracer::global(); }

/// Parses a JSON-lines trace file (blank lines skipped, events of unknown
/// kind skipped). Throws IoError on unreadable paths and a ParseError naming
/// `path:line` on a malformed line (read_json_lines).
std::vector<TraceEvent> read_trace_file(const std::string& path);

}  // namespace acclaim::telemetry
