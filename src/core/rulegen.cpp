#include "core/rulegen.hpp"

#include <cmath>
#include <fstream>
#include <limits>

#include "core/heuristic.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/profiler.hpp"
#include "util/error.hpp"

namespace acclaim::core {

namespace {

/// Flattens a model explanation into the telemetry layer's string-and-number
/// DecisionRecord shape (telemetry sits below core and cannot see coll::
/// types). Scenario fields and seq are filled by the caller / the log.
telemetry::DecisionRecord selection_record(const SelectionExplanation& ex) {
  telemetry::DecisionRecord rec;
  rec.kind = telemetry::DecisionKind::Selection;
  rec.source = "model";
  rec.features = ex.features;
  rec.scores.reserve(ex.candidates.size());
  for (const SelectionExplanation::Candidate& c : ex.candidates) {
    rec.scores.push_back({coll::algorithm_info(c.algorithm).name, c.predicted_log_us, c.votes});
  }
  rec.chosen = coll::algorithm_info(ex.chosen).name;
  if (ex.has_runner_up) {
    rec.runner_up = coll::algorithm_info(ex.runner_up).name;
    rec.margin = ex.margin;
  }
  rec.variance = ex.variance;
  rec.tree_evals = ex.tree_evals;
  return rec;
}

}  // namespace

void RuleTable::set_bucket(BucketKey key, std::vector<SelectionRule> rules) {
  require(!rules.empty(), "bucket must contain at least one rule");
  buckets_[key] = std::move(rules);
}

coll::Algorithm RuleTable::lookup(const bench::Scenario& s) const {
  require(s.collective == collective_, "scenario collective does not match rule table");
  require(!buckets_.empty(), "rule table has no buckets");
  // The log2 distance below is finite only for positive scales.
  require(s.nnodes >= 1 && s.ppn >= 1, "rule lookup needs nnodes >= 1 and ppn >= 1");
  // Exact bucket, else nearest in log2 space (ties -> smaller key, which
  // std::map iteration order provides).
  const BucketKey want{s.nnodes, s.ppn};
  auto it = buckets_.find(want);
  if (it == buckets_.end()) {
    double best = std::numeric_limits<double>::infinity();
    for (auto cand = buckets_.begin(); cand != buckets_.end(); ++cand) {
      const double d =
          std::abs(std::log2(static_cast<double>(cand->first.nnodes)) -
                   std::log2(static_cast<double>(want.nnodes))) +
          std::abs(std::log2(static_cast<double>(cand->first.ppn)) -
                   std::log2(static_cast<double>(want.ppn)));
      if (d < best) {
        best = d;
        it = cand;
      }
    }
  }
  for (const SelectionRule& rule : it->second) {
    if (s.msg_bytes <= rule.msg_le) {
      return rule.alg;
    }
  }
  // Unreachable for validated tables (terminal rule is kRuleMax).
  return it->second.back().alg;
}

void RuleTable::validate() const {
  require(!buckets_.empty(), "rule table has no buckets");
  for (const auto& [key, rules] : buckets_) {
    require(key.nnodes >= 1 && key.ppn >= 1, "rule bucket needs nnodes >= 1 and ppn >= 1");
    require(!rules.empty(), "empty rule bucket");
    require(rules.back().msg_le == kRuleMax,
            "rule set is not complete: terminal rule must cover all sizes");
    for (std::size_t i = 0; i < rules.size(); ++i) {
      require(coll::algorithm_info(rules[i].alg).collective == collective_,
              "rule algorithm does not implement the table's collective");
      if (i > 0) {
        require(rules[i].msg_le > rules[i - 1].msg_le,
                "rule thresholds must be strictly increasing");
        require(rules[i].alg != rules[i - 1].alg,
                "rule set is not pruned: consecutive rules share an algorithm");
      }
    }
  }
}

RuleTable RuleGenerator::generate(const CollectiveModel& model, const FeatureSpace& space,
                                  RuleGeneratorStats* stats) const {
  require(model.trained(), "rule generation requires a trained model");
  const telemetry::Span generate_span("rulegen.generate");
  const coll::Collective c = model.collective();
  RuleTable table(c);
  RuleGeneratorStats local;
  // Flight recorder: when it is on, every model query of the grid walk
  // becomes one Selection record with the full per-candidate breakdown, at
  // the query's place in the walk. explain() reads select()'s scoring call,
  // so the record names the algorithm the walk uses. The walk is serial, so
  // record order is thread-count-independent (det-audit-order).
  auto record = [&](const bench::Scenario& s) {
    if (!telemetry::audit().enabled()) {
      return;
    }
    const telemetry::Span span("audit.decision");
    telemetry::DecisionRecord rec = selection_record(model.explain(s));
    rec.collective = coll::collective_name(s.collective);
    rec.nnodes = s.nnodes;
    rec.ppn = s.ppn;
    rec.msg_bytes = s.msg_bytes;
    telemetry::audit().record(std::move(rec));
    telemetry::observe_decision_cost(span.elapsed_ns());
  };
  // Default guard (see RuleGeneratorConfig): revert a cell to the MPICH
  // default algorithm when the model's own predictions put the tuned pick
  // within the confidence margin of it. Queries are serial, so audit-record
  // order stays thread-count-independent.
  auto guarded = [&](const bench::Scenario& s, coll::Algorithm tuned) {
    if (config_.default_guard_margin <= 0.0) {
      return tuned;
    }
    const coll::Algorithm def = mpich_default_selection(s);
    if (def == tuned) {
      return tuned;
    }
    const double tuned_log = model.predict_log_us({s, tuned});
    const double def_log = model.predict_log_us({s, def});
    if (std::exp(def_log - tuned_log) < 1.0 + config_.default_guard_margin) {
      ++local.default_guards;
      return def;
    }
    return tuned;
  };
  for (int nnodes : space.nodes()) {
    for (int ppn : space.ppns()) {
      const auto& msgs = space.msgs();
      std::vector<SelectionRule> rules;
      auto scenario = [&](std::uint64_t msg) {
        return bench::Scenario{c, nnodes, ppn, msg};
      };
      // The bucket's whole msg grid goes through one select_batch call.
      std::vector<bench::Scenario> grid;
      grid.reserve(msgs.size());
      for (std::uint64_t msg : msgs) {
        grid.push_back(scenario(msg));
      }
      const std::vector<coll::Algorithm> picks = model.select_batch(grid);
      auto grid_select = [&](std::size_t i) {
        record(grid[i]);
        return guarded(grid[i], picks[i]);
      };
      coll::Algorithm current = grid_select(0);
      for (std::size_t i = 1; i < msgs.size(); ++i) {
        const coll::Algorithm next = grid_select(i);
        if (next == current) {
          continue;
        }
        // Selection changes between A = msgs[i-1] and C = msgs[i]: re-query
        // the model at the non-P2 midpoint B (Fig. 9).
        const std::uint64_t a = msgs[i - 1];
        const std::uint64_t cm = msgs[i];
        const bench::Scenario mid = scenario(a + (cm - a) / 2);
        record(mid);
        const coll::Algorithm alg_b = guarded(mid, model.select(mid));
        ++local.midpoint_queries;
        rules.push_back({a, current});
        rules.push_back({cm - 1, alg_b});
        current = next;
      }
      rules.push_back({kRuleMax, current});

      // Prune: merge consecutive rules resolving to the same algorithm
      // (covers both the ALG-A == ALG-B and ALG-B == ALG-C cases).
      std::vector<SelectionRule> pruned;
      for (const SelectionRule& r : rules) {
        if (!pruned.empty() && pruned.back().alg == r.alg) {
          pruned.back().msg_le = r.msg_le;
          ++local.merges;
        } else {
          pruned.push_back(r);
        }
      }
      local.rules += static_cast<int>(pruned.size());
      ++local.buckets;
      table.set_bucket(BucketKey{nnodes, ppn}, std::move(pruned));
    }
  }
  table.validate();
  if (stats != nullptr) {
    *stats = local;
  }
  return table;
}

util::Json rules_to_json(const std::vector<RuleTable>& tables) {
  util::Json doc = util::Json::object();
  doc["format"] = "acclaim-coll-tuning-v1";
  util::Json colls = util::Json::object();
  for (const RuleTable& table : tables) {
    table.validate();
    util::Json buckets = util::Json::array();
    for (const auto& [key, rules] : table.buckets()) {
      util::Json bucket = util::Json::object();
      bucket["nnodes"] = key.nnodes;
      bucket["ppn"] = key.ppn;
      util::Json jrules = util::Json::array();
      for (const SelectionRule& r : rules) {
        util::Json jr = util::Json::object();
        if (r.msg_le != kRuleMax) {
          jr["msg_size_le"] = static_cast<double>(r.msg_le);
        }
        jr["algorithm"] = coll::algorithm_info(r.alg).name;
        jrules.push_back(std::move(jr));
      }
      bucket["rules"] = std::move(jrules);
      buckets.push_back(std::move(bucket));
    }
    colls[coll::collective_name(table.collective())] = std::move(buckets);
  }
  doc["collectives"] = std::move(colls);
  return doc;
}

std::vector<RuleTable> rules_from_json(const util::Json& doc) {
  require(doc.contains("format") && doc.at("format").as_string() == "acclaim-coll-tuning-v1",
          "unknown selection-config format");
  std::vector<RuleTable> tables;
  for (const auto& [cname, buckets] : doc.at("collectives").as_object()) {
    const coll::Collective c = coll::parse_collective(cname);
    RuleTable table(c);
    for (const util::Json& bucket : buckets.as_array()) {
      std::vector<SelectionRule> rules;
      for (const util::Json& jr : bucket.at("rules").as_array()) {
        SelectionRule r;
        r.msg_le = jr.contains("msg_size_le")
                       ? static_cast<std::uint64_t>(jr.at("msg_size_le").as_number())
                       : kRuleMax;
        r.alg = coll::parse_algorithm(c, jr.at("algorithm").as_string());
        rules.push_back(r);
      }
      table.set_bucket(
          BucketKey{static_cast<int>(bucket.at("nnodes").as_int()),
                    static_cast<int>(bucket.at("ppn").as_int())},
          std::move(rules));
    }
    table.validate();
    tables.push_back(std::move(table));
  }
  return tables;
}

SelectionEngine::SelectionEngine(std::vector<RuleTable> tables) {
  for (RuleTable& t : tables) {
    t.validate();
    const int key = static_cast<int>(t.collective());
    require(tables_.find(key) == tables_.end(), "duplicate rule table for a collective");
    tables_.emplace(key, std::move(t));
  }
}

SelectionEngine SelectionEngine::from_json(const util::Json& doc) {
  return SelectionEngine(rules_from_json(doc));
}

SelectionEngine SelectionEngine::from_file(const std::string& path) {
  return from_json(util::Json::parse_file(path));
}

bool SelectionEngine::covers(coll::Collective c) const {
  return tables_.count(static_cast<int>(c)) > 0;
}

coll::Algorithm SelectionEngine::select(const bench::Scenario& s) const {
  const auto it = tables_.find(static_cast<int>(s.collective));
  if (it == tables_.end()) {
    throw NotFoundError(std::string("selection engine has no rules for ") +
                        coll::collective_name(s.collective));
  }
  const coll::Algorithm alg = it->second.lookup(s);
  if (telemetry::audit().enabled()) {
    // Rule lookups have no candidate scores (the table already collapsed
    // them); the record still captures what was asked and what was served —
    // the runtime-selection half of the flight recorder.
    const telemetry::Span span("audit.decision");
    telemetry::DecisionRecord rec;
    rec.kind = telemetry::DecisionKind::Selection;
    rec.source = "rules";
    rec.collective = coll::collective_name(s.collective);
    rec.nnodes = s.nnodes;
    rec.ppn = s.ppn;
    rec.msg_bytes = s.msg_bytes;
    rec.chosen = coll::algorithm_info(alg).name;
    telemetry::audit().record(std::move(rec));
    telemetry::observe_decision_cost(span.elapsed_ns());
  }
  return alg;
}

}  // namespace acclaim::core
