// Configuration-file generation (§V, Fig. 9) and runtime selection.
//
// MPICH consumes algorithm selections as a JSON rule file. The generator
// walks the trained model's selections over the P2 message grid for every
// (nodes, ppn) bucket; where the selection changes between adjacent P2
// points A < C it re-queries the model at the non-P2 midpoint B and emits
// three rules (<=A, (A,C), >=C), so the model's non-P2 knowledge survives
// into the rule file. Rules are then pruned: consecutive rules that resolve
// to the same algorithm merge, minimizing selection delay.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "benchdata/point.hpp"
#include "core/feature_space.hpp"
#include "core/model.hpp"
#include "util/json.hpp"

namespace acclaim::core {

/// "Use `alg` for message sizes <= msg_le." The terminal rule of a bucket
/// has msg_le == kRuleMax, making the rule set complete by construction.
struct SelectionRule {
  std::uint64_t msg_le = 0;
  coll::Algorithm alg = coll::Algorithm::BcastBinomial;

  bool operator==(const SelectionRule&) const = default;
};

inline constexpr std::uint64_t kRuleMax = ~std::uint64_t{0};

struct BucketKey {
  int nnodes = 0;
  int ppn = 0;
  auto operator<=>(const BucketKey&) const = default;
};

/// Per-collective rule set, bucketed by (nodes, ppn).
class RuleTable {
 public:
  RuleTable() = default;
  explicit RuleTable(coll::Collective c) : collective_(c) {}

  coll::Collective collective() const noexcept { return collective_; }

  void set_bucket(BucketKey key, std::vector<SelectionRule> rules);
  const std::map<BucketKey, std::vector<SelectionRule>>& buckets() const noexcept {
    return buckets_;
  }

  /// Selects for a scenario: exact (nodes, ppn) bucket if present, else the
  /// nearest bucket in log2 space; then first rule with msg <= msg_le.
  /// Throws InvalidArgument for a scenario with nnodes or ppn below 1.
  coll::Algorithm lookup(const bench::Scenario& s) const;

  /// Checks invariants: buckets at nnodes and ppn >= 1, non-empty buckets,
  /// strictly increasing msg_le, terminal kRuleMax rule ("complete"), and
  /// no two consecutive rules with the same algorithm ("pruned"). Throws
  /// InvalidArgument on violation.
  void validate() const;

 private:
  coll::Collective collective_ = coll::Collective::Bcast;
  std::map<BucketKey, std::vector<SelectionRule>> buckets_;
};

struct RuleGeneratorStats {
  int buckets = 0;
  int rules = 0;
  int midpoint_queries = 0;  ///< non-P2 model re-queries (point B of Fig. 9)
  int merges = 0;            ///< rules removed by pruning
  int default_guards = 0;    ///< cells the default guard reverted (see config)
};

struct RuleGeneratorConfig {
  /// When > 0, each grid cell keeps the MPICH default algorithm unless the
  /// model predicts the tuned pick beats it by more than this fraction
  /// (predicted default/tuned time ratio must exceed 1 + margin). Sparse
  /// models trained on noisy measurements suffer the winner's curse on
  /// near-tie scenarios — the "fastest measured" algorithm regresses to
  /// slightly worse than a near-optimal default — so fleet-scale tuning
  /// trades those coin-flip cells for the default and keeps only selections
  /// the model is confident about. 0 (the default) emits the model's argmin
  /// unconditionally, the paper's Fig. 9 behavior.
  double default_guard_margin = 0.0;
};

class RuleGenerator {
 public:
  RuleGenerator() = default;
  explicit RuleGenerator(RuleGeneratorConfig config) : config_(config) {}

  /// Generates the rule table for `model`'s collective over the space's
  /// (nodes, ppn, msg) axes.
  RuleTable generate(const CollectiveModel& model, const FeatureSpace& space,
                     RuleGeneratorStats* stats = nullptr) const;

 private:
  RuleGeneratorConfig config_;
};

/// Serializes rule tables (one per tuned collective) into the MPICH-style
/// JSON configuration document.
util::Json rules_to_json(const std::vector<RuleTable>& tables);

/// Parses a configuration document back. Throws ParseError/InvalidArgument
/// on malformed input.
std::vector<RuleTable> rules_from_json(const util::Json& doc);

/// Runtime selection from a configuration document — the piece MPICH
/// executes inside MPI_Bcast & friends once ACCLAiM has written the file.
class SelectionEngine {
 public:
  explicit SelectionEngine(std::vector<RuleTable> tables);
  static SelectionEngine from_json(const util::Json& doc);
  static SelectionEngine from_file(const std::string& path);

  /// True if the engine has rules for the collective.
  bool covers(coll::Collective c) const;

  /// Selects an algorithm; throws NotFoundError if the collective is not
  /// covered (callers fall back to the default heuristic).
  coll::Algorithm select(const bench::Scenario& s) const;

 private:
  std::map<int, RuleTable> tables_;  // keyed by collective id
};

}  // namespace acclaim::core
