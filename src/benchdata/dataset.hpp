// Precollected benchmark datasets (the paper's Fig. 1(a) methodology).
//
// For the comparative experiments the paper looks benchmark results up in an
// exhaustively precollected dataset instead of re-running them; we do the
// same. A Dataset maps BenchmarkPoint -> Measurement, persists to CSV, and
// answers oracle queries (best algorithm / best time per scenario) used by
// the average-slowdown metric.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "benchdata/grid.hpp"
#include "benchdata/microbenchmark.hpp"
#include "benchdata/point.hpp"
#include "simnet/machine.hpp"

namespace acclaim::bench {

class Dataset {
 public:
  void add(const BenchmarkPoint& point, const Measurement& m);

  bool contains(const BenchmarkPoint& point) const;
  /// Throws NotFoundError with the point description if absent.
  const Measurement& at(const BenchmarkPoint& point) const;

  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  /// All stored points (sorted by point ordering).
  std::vector<BenchmarkPoint> points() const;

  /// All points of one collective.
  std::vector<BenchmarkPoint> points(coll::Collective c) const;

  /// Distinct scenarios of one collective.
  std::vector<Scenario> scenarios(coll::Collective c) const;

  /// Distinct message sizes present for a collective (sorted).
  std::vector<std::uint64_t> message_sizes(coll::Collective c) const;

  /// Oracle: the fastest measured algorithm / its time for a scenario.
  /// Throws NotFoundError if the scenario has no measurements.
  coll::Algorithm best_algorithm(const Scenario& s) const;
  double best_time_us(const Scenario& s) const;

  /// Measured time of a specific algorithm for a scenario.
  double time_us(const Scenario& s, coll::Algorithm a) const;

  /// Sum of collection costs over all stored points, in seconds.
  double total_collection_cost_s() const;

  void save(const std::string& path) const;
  static Dataset load(const std::string& path);

 private:
  std::map<BenchmarkPoint, Measurement> data_;
};

/// Exhaustively benchmarks every point of `grid` x `collectives` on a
/// contiguous allocation of a machine (sequential collection, one network
/// realization chosen by `seed`). This is the "precollected dataset" of the
/// simulated experiments.
Dataset precollect(const simnet::MachineConfig& machine, const FeatureGrid& grid,
                   const std::vector<coll::Collective>& collectives, std::uint64_t seed);

/// Loads `path` if it exists, otherwise precollects and saves it — keeps the
/// bench harnesses fast across runs while staying reproducible.
Dataset load_or_collect(const std::string& path, const simnet::MachineConfig& machine,
                        const FeatureGrid& grid, const std::vector<coll::Collective>& collectives,
                        std::uint64_t seed);

}  // namespace acclaim::bench
