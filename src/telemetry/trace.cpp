#include "telemetry/trace.hpp"

#include <utility>

#include "util/error.hpp"

namespace acclaim::telemetry {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::TrainingIteration: return "training_iteration";
    case EventKind::PointAcquired: return "point_acquired";
    case EventKind::BatchScheduled: return "batch_scheduled";
    case EventKind::BenchmarkRun: return "benchmark_run";
    case EventKind::ModelRefit: return "model_refit";
    case EventKind::ConvergenceCheck: return "convergence_check";
    case EventKind::Phase: return "phase";
    case EventKind::FleetJob: return "fleet_job";
  }
  return "?";
}

std::optional<EventKind> parse_event_kind(const std::string& name) {
  for (EventKind k : {EventKind::TrainingIteration, EventKind::PointAcquired,
                      EventKind::BatchScheduled, EventKind::BenchmarkRun, EventKind::ModelRefit,
                      EventKind::ConvergenceCheck, EventKind::Phase, EventKind::FleetJob}) {
    if (name == event_kind_name(k)) {
      return k;
    }
  }
  return std::nullopt;
}

util::Json TraceEvent::to_json() const {
  util::Json doc = util::Json::object();
  doc["event"] = event_kind_name(kind);
  doc["t_ms"] = t_wall_ms;
  if (!label.empty()) {
    doc["label"] = label;
  }
  for (const auto& [key, value] : fields) {
    doc[key] = value;
  }
  return doc;
}

TraceEvent TraceEvent::from_json(const util::Json& doc) {
  const auto kind = parse_event_kind(doc.at("event").as_string());
  require(kind.has_value(),
          "unknown trace event kind '" + doc.at("event").as_string() + "'");
  TraceEvent ev;
  ev.kind = *kind;
  if (doc.contains("t_ms")) {
    ev.t_wall_ms = doc.at("t_ms").as_number();
  }
  if (doc.contains("label")) {
    ev.label = doc.at("label").as_string();
  }
  for (const auto& [key, value] : doc.as_object()) {
    if (key == "event" || key == "t_ms" || key == "label") {
      continue;
    }
    ev.fields[key] = value;
  }
  return ev;
}

Tracer::Tracer() : RecordSink("trace"), epoch_(std::chrono::steady_clock::now()) {}

Tracer& Tracer::global() {
  static Tracer t;
  return t;
}

void Tracer::record(TraceEvent ev) {
  deliver(std::move(ev), [this](TraceEvent& e, std::uint64_t) {
    e.t_wall_ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - epoch_)
            .count();
  });
}

std::vector<TraceEvent> read_trace_file(const std::string& path) {
  std::vector<TraceEvent> events;
  read_json_lines(path, [&](const util::Json& doc) {
    // Forward compatibility: skip kinds this build does not know.
    if (parse_event_kind(doc.at("event").as_string()).has_value()) {
      events.push_back(TraceEvent::from_json(doc));
    }
  });
  return events;
}

}  // namespace acclaim::telemetry
