#include "telemetry/audit.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <sstream>

#include "telemetry/metrics.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace acclaim::telemetry {

const char* decision_kind_name(DecisionKind kind) {
  switch (kind) {
    case DecisionKind::Selection: return "selection";
    case DecisionKind::Acquisition: return "acquisition";
  }
  return "?";
}

namespace {

DecisionKind parse_decision_kind(const std::string& name) {
  if (name == "selection") {
    return DecisionKind::Selection;
  }
  if (name == "acquisition") {
    return DecisionKind::Acquisition;
  }
  throw InvalidArgument("unknown decision kind '" + name + "'");
}

}  // namespace

util::Json DecisionRecord::to_json() const {
  util::Json doc = util::Json::object();
  doc["seq"] = seq;
  doc["kind"] = decision_kind_name(kind);
  doc["source"] = source;
  doc["collective"] = collective;
  doc["nnodes"] = nnodes;
  doc["ppn"] = ppn;
  doc["msg_bytes"] = msg_bytes;
  if (!features.empty()) {
    util::Json f = util::Json::array();
    for (double v : features) {
      f.push_back(v);
    }
    doc["features"] = std::move(f);
  }
  if (!scores.empty()) {
    util::Json s = util::Json::array();
    for (const CandidateScore& c : scores) {
      util::Json e = util::Json::object();
      e["algorithm"] = c.algorithm;
      e["log_us"] = c.predicted_log_us;
      e["votes"] = c.votes;
      s.push_back(std::move(e));
    }
    doc["scores"] = std::move(s);
  }
  doc["chosen"] = chosen;
  if (!runner_up.empty()) {
    doc["runner_up"] = runner_up;
    doc["margin"] = margin;
  }
  doc["variance"] = variance;
  if (kind == DecisionKind::Acquisition) {
    doc["acq_score"] = acq_score;
    doc["pool_size"] = pool_size;
    doc["round"] = round;
    doc["nonp2"] = nonp2;
  }
  doc["tree_evals"] = tree_evals;
  return doc;
}

DecisionRecord DecisionRecord::from_json(const util::Json& doc) {
  DecisionRecord rec;
  rec.seq = static_cast<std::uint64_t>(doc.at("seq").as_int());
  rec.kind = parse_decision_kind(doc.at("kind").as_string());
  rec.source = doc.at("source").as_string();
  rec.collective = doc.at("collective").as_string();
  rec.nnodes = static_cast<int>(doc.at("nnodes").as_int());
  rec.ppn = static_cast<int>(doc.at("ppn").as_int());
  rec.msg_bytes = static_cast<std::uint64_t>(doc.at("msg_bytes").as_int());
  if (doc.contains("features")) {
    for (const util::Json& v : doc.at("features").as_array()) {
      rec.features.push_back(v.as_number());
    }
  }
  if (doc.contains("scores")) {
    for (const util::Json& e : doc.at("scores").as_array()) {
      CandidateScore c;
      c.algorithm = e.at("algorithm").as_string();
      c.predicted_log_us = e.at("log_us").as_number();
      c.votes = static_cast<int>(e.at("votes").as_int());
      rec.scores.push_back(std::move(c));
    }
  }
  rec.chosen = doc.at("chosen").as_string();
  if (doc.contains("runner_up")) {
    rec.runner_up = doc.at("runner_up").as_string();
    rec.margin = doc.at("margin").as_number();
  }
  rec.variance = doc.at("variance").as_number();
  if (doc.contains("acq_score")) {
    rec.acq_score = doc.at("acq_score").as_number();
  }
  if (doc.contains("pool_size")) {
    rec.pool_size = doc.at("pool_size").as_int();
  }
  if (doc.contains("round")) {
    rec.round = doc.at("round").as_int();
  }
  if (doc.contains("nonp2")) {
    rec.nonp2 = doc.at("nonp2").as_bool();
  }
  if (doc.contains("tree_evals")) {
    rec.tree_evals = doc.at("tree_evals").as_int();
  }
  return rec;
}

AuditLog& AuditLog::global() {
  static AuditLog log;
  return log;
}

void AuditLog::record(DecisionRecord rec) {
  deliver(std::move(rec), [](DecisionRecord& r, std::uint64_t n) { r.seq = n; });
}

void observe_decision_cost(double wall_ns) {
  static Counter& records = metrics().counter("audit.records");
  static Histogram& cost = metrics().histogram("audit.decision_wall_ns", {100.0, 32});
  records.add();
  cost.observe(wall_ns);
}

std::vector<DecisionRecord> read_audit_file(const std::string& path) {
  std::vector<DecisionRecord> out;
  read_json_lines(path,
                  [&](const util::Json& doc) { out.push_back(DecisionRecord::from_json(doc)); });
  return out;
}

// ---------------------------------------------------------------------------
// Explain
// ---------------------------------------------------------------------------

ExplainReport build_explain(const std::vector<DecisionRecord>& records) {
  ExplainReport report;
  // key -> running flip stat; std::map keeps render order stable.
  std::map<std::string, ExplainReport::FlipStat> flips;
  for (const DecisionRecord& rec : records) {
    if (rec.kind == DecisionKind::Acquisition) {
      report.acquisitions.push_back(rec);
      continue;
    }
    report.selections.push_back(rec);
    std::ostringstream key;
    key << rec.collective << " n" << rec.nnodes << " pp" << rec.ppn << " msg" << rec.msg_bytes;
    ExplainReport::FlipStat& stat = flips[key.str()];
    stat.key = key.str();
    ++stat.decisions;
    if (!stat.last_chosen.empty() && stat.last_chosen != rec.chosen) {
      ++stat.flips;
      stat.last_flip_seq = rec.seq;
    }
    stat.last_chosen = rec.chosen;
  }
  report.flips.reserve(flips.size());
  for (auto& [key, stat] : flips) {
    report.flips.push_back(std::move(stat));
  }
  return report;
}

namespace {

/// Evenly sampled indices over [0, n), endpoints kept.
std::vector<std::size_t> sample_indices(std::size_t n, int max_rows) {
  const std::size_t rows =
      std::min<std::size_t>(n, static_cast<std::size_t>(std::max(2, max_rows)));
  std::vector<std::size_t> out;
  for (std::size_t r = 0; r < rows; ++r) {
    out.push_back(rows == 1 ? 0 : r * (n - 1) / (rows - 1));
  }
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void render_selection_block(const DecisionRecord& rec, std::ostream& os) {
  os << "--- decision #" << rec.seq << " [" << rec.source << "] " << rec.collective << " n"
     << rec.nnodes << " pp" << rec.ppn << " msg" << rec.msg_bytes << " ---\n";
  os << "chosen: " << rec.chosen;
  if (!rec.runner_up.empty()) {
    os << "   runner-up: " << rec.runner_up << " (+" << util::fixed(rec.margin * 100.0, 1)
       << "% predicted)";
  }
  os << "   jackknife variance: " << util::fixed(rec.variance, 6) << "\n";
  if (rec.scores.empty()) {
    return;
  }
  int max_votes = 1;
  for (const CandidateScore& c : rec.scores) {
    max_votes = std::max(max_votes, c.votes);
  }
  util::TablePrinter table({"algorithm", "pred log(us)", "votes", ""});
  for (const CandidateScore& c : rec.scores) {
    const std::size_t bar = static_cast<std::size_t>(29 * c.votes / max_votes);
    std::string name = c.algorithm;
    if (name == rec.chosen) {
      name += " *";
    }
    table.add_row({name, util::fixed(c.predicted_log_us, 4), std::to_string(c.votes),
                   std::string(bar, '#')});
  }
  table.print(os);
}

}  // namespace

void render_explain(const ExplainReport& report, std::ostream& os, int max_decisions,
                    int max_rows) {
  os << "=== audit summary ===\n";
  {
    std::map<std::string, std::uint64_t> counts;
    for (const DecisionRecord& r : report.selections) {
      ++counts["selection/" + r.source + " (" + r.collective + ")"];
    }
    for (const DecisionRecord& r : report.acquisitions) {
      ++counts["acquisition/" + r.source + " (" + r.collective + ")"];
    }
    util::TablePrinter table({"decision", "count"});
    for (const auto& [name, count] : counts) {
      table.add_row({name, std::to_string(count)});
    }
    table.print(os);
  }

  if (!report.selections.empty()) {
    os << "\n=== selection decisions (" << report.selections.size() << " total, showing "
       << std::min<std::size_t>(report.selections.size(),
                                static_cast<std::size_t>(std::max(2, max_decisions)))
       << ") ===\n";
    for (std::size_t i : sample_indices(report.selections.size(), max_decisions)) {
      render_selection_block(report.selections[i], os);
    }
  }

  if (!report.acquisitions.empty()) {
    // Group the trend by collective so interleaved multi-collective logs
    // stay readable.
    std::map<std::string, std::vector<const DecisionRecord*>> by_coll;
    for (const DecisionRecord& r : report.acquisitions) {
      by_coll[r.collective].push_back(&r);
    }
    for (const auto& [coll, recs] : by_coll) {
      os << "\n=== acquisition trend: " << coll << " (" << recs.size() << " rounds) ===\n";
      util::TablePrinter table({"round", "picked", "acq score", "variance", "pool", "nonp2"});
      for (std::size_t i : sample_indices(recs.size(), max_rows)) {
        const DecisionRecord& r = *recs[i];
        table.add_row({std::to_string(r.round), r.chosen, util::fixed(r.acq_score, 6),
                       util::fixed(r.variance, 6), std::to_string(r.pool_size),
                       r.nonp2 ? "yes" : "no"});
      }
      table.print(os);
      // Variance trend endpoints: the convergence story in two numbers.
      const double first = recs.front()->acq_score;
      const double last = recs.back()->acq_score;
      os << "acquisition score " << util::fixed(first, 6) << " -> " << util::fixed(last, 6);
      if (first > 0.0) {
        os << "  (" << util::fixed(last / first, 3) << "x)";
      }
      os << "\n";
    }
  }

  if (!report.flips.empty()) {
    os << "\n=== convergence: selection stability ===\n";
    const std::uint64_t last_seq =
        report.selections.empty() ? 0 : report.selections.back().seq;
    util::TablePrinter table({"scenario", "decisions", "flips", "records since last flip"});
    int rendered = 0;
    for (const ExplainReport::FlipStat& f : report.flips) {
      if (rendered >= std::max(2, max_rows)) {
        os << "(" << report.flips.size() - static_cast<std::size_t>(rendered)
           << " more scenarios elided; raise --rows to see them)\n";
        break;
      }
      const std::string since =
          f.flips == 0 ? "never flipped"
                       : std::to_string(last_seq >= f.last_flip_seq ? last_seq - f.last_flip_seq
                                                                    : 0);
      table.add_row({f.key, std::to_string(f.decisions), std::to_string(f.flips), since});
      ++rendered;
    }
    table.print(os);
  }
}

}  // namespace acclaim::telemetry
