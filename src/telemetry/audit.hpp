// Decision flight recorder: one structured record per algorithm selection
// and per acquisition round.
//
// ACCLAiM's practicality argument needs the tuner to be *inspectable*: an
// operator must be able to ask, for any decision the system made, what the
// model saw (feature vector), what every candidate scored (per-algorithm
// predictions and per-tree votes), how sure the model was (jackknife
// variance), what won, what came second and by what margin, and what the
// decision itself cost. The aggregate counters and trace spans in
// metrics/trace answer "how much"; this module answers "why".
//
// The audit log and the Tracer share one RecordSink (telemetry/sink.hpp):
// recording is off by default — a single relaxed atomic load gates every
// emission site — and can be turned on two ways, independently:
// enable_ring(n) keeps the last n records in memory, open_stream(path)
// appends each record as one compact JSON object per line (JSON-lines, the
// format `acclaim explain` consumes).
//
// Determinism contract: a DecisionRecord carries NO wall-clock data — its
// fields are pure functions of the seeded computation, and emission sites
// sit on the serial decision path (never inside a parallel_for; the
// det-audit-order lint check enforces this), so an audit log is
// bitwise-identical across --threads values for a fixed seed. The host-wall
// cost of building a record is routed to the metrics registry
// (audit.decision_wall_ns) instead of the record itself.
//
// The layer graph puts telemetry below collectives/core, so records speak
// strings and numbers — collective and algorithm *names*, raw scenario
// axes — not core types; core fills them in.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "telemetry/sink.hpp"
#include "util/json.hpp"

namespace acclaim::telemetry {

/// What kind of decision a record describes.
enum class DecisionKind {
  Selection,    ///< the model (or a rule table) picked an algorithm
  Acquisition,  ///< the acquisition policy picked the next benchmark point(s)
};

const char* decision_kind_name(DecisionKind kind);

/// One candidate the decision considered: an algorithm with its mean
/// predicted log-time and the number of trees that scored it fastest.
struct CandidateScore {
  std::string algorithm;
  double predicted_log_us = 0.0;
  int votes = 0;

  bool operator==(const CandidateScore&) const = default;
};

/// One decision, fully explained. All fields are deterministic for a fixed
/// seed (no timestamps, no wall-clock durations — see the header comment).
struct DecisionRecord {
  /// Monotonic per-log sequence number, assigned by AuditLog::record.
  std::uint64_t seq = 0;
  DecisionKind kind = DecisionKind::Selection;
  /// "model" | "rules" | "policy" — which component decided.
  std::string source;
  std::string collective;

  // Scenario the decision was made for (the acquisition point, or the
  // selection query).
  int nnodes = 0;
  int ppn = 0;
  std::uint64_t msg_bytes = 0;

  /// Encoded feature vector the model saw (empty for rule-table lookups).
  std::vector<double> features;

  /// Per-algorithm scores for selections (empty for rule lookups and
  /// acquisition picks, which consider points, not algorithms).
  std::vector<CandidateScore> scores;

  std::string chosen;      ///< algorithm name (selection) or point string (acquisition)
  std::string runner_up;   ///< second-best candidate; empty when there is none
  /// Predicted margin of the runner-up over the chosen candidate:
  /// exp(runner_log - chosen_log) - 1 for selections (how much slower the
  /// second-best algorithm is predicted to be), and the relative score gap
  /// for acquisitions. 0 when there is no runner-up.
  double margin = 0.0;

  /// Jackknife variance of the chosen candidate under the current model.
  double variance = 0.0;
  /// The acquisition score that drove the pick (the candidate's jackknife
  /// variance for ACCLAiM's policy); 0 for selections.
  double acq_score = 0.0;

  std::int64_t pool_size = 0;  ///< acquisition candidate pool size (0 for selections)
  std::int64_t round = 0;      ///< acquisition round / pick ordinal within the run
  bool nonp2 = false;          ///< a non-P2 message-size swap was applied

  /// Virtual decision cost: decision-tree evaluations spent on this record.
  std::int64_t tree_evals = 0;

  /// Flat JSON object (one audit-log line).
  util::Json to_json() const;
  /// Inverse of to_json; throws InvalidArgument on unknown kinds, missing
  /// required fields, or type mismatches.
  static DecisionRecord from_json(const util::Json& doc);
};

/// Process-wide sink for DecisionRecords: a RecordSink that stamps each
/// record's `seq` (its ordinal since the last disable()) as it delivers it.
class AuditLog : public RecordSink<DecisionRecord> {
 public:
  static AuditLog& global();

  /// Assigns the record's seq and delivers it to the active destinations.
  void record(DecisionRecord rec);

 private:
  AuditLog() : RecordSink("audit") {}
};

/// Shorthand for AuditLog::global().
inline AuditLog& audit() { return AuditLog::global(); }

/// Records the host-wall cost of building+emitting one decision record into
/// the metrics registry (audit.decision_wall_ns histogram + audit.records
/// counter). Kept out of DecisionRecord itself so audit logs stay
/// bitwise-deterministic; call it from the emission site after record().
void observe_decision_cost(double wall_ns);

/// Parses a JSON-lines audit file (blank lines skipped). Throws IoError on
/// unreadable paths and a ParseError naming `path:line` on a malformed line
/// (read_json_lines).
std::vector<DecisionRecord> read_audit_file(const std::string& path);

// ---------------------------------------------------------------------------
// Explain: replay an audit log into per-decision "why" reports.
// ---------------------------------------------------------------------------

/// Aggregated view of an audit log, built once and rendered in pieces.
struct ExplainReport {
  std::vector<DecisionRecord> selections;
  std::vector<DecisionRecord> acquisitions;

  /// Convergence diagnostic per (collective, scenario) selection key: how
  /// often the chosen algorithm flipped across the log, and the position of
  /// the last flip (records-since-last-flip is the stability signal).
  struct FlipStat {
    std::string key;           ///< "collective nXppXmsg"
    std::string last_chosen;
    int decisions = 0;
    int flips = 0;
    std::uint64_t last_flip_seq = 0;  ///< seq of the last flip; 0 = never flipped
  };
  std::vector<FlipStat> flips;  ///< sorted by key
};

ExplainReport build_explain(const std::vector<DecisionRecord>& records);

/// Renders per-decision reports: decision counts, selection "why" blocks
/// (per-algorithm vote histogram, margin over runner-up, variance), the
/// acquisition variance/score trend per collective, and convergence
/// diagnostics (selection flips, records-since-last-flip). At most
/// `max_decisions` selection blocks are rendered (evenly sampled, endpoints
/// kept); the trend table is sampled down to `max_rows` rows.
void render_explain(const ExplainReport& report, std::ostream& os, int max_decisions = 4,
                    int max_rows = 12);

}  // namespace acclaim::telemetry
