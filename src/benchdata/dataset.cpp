#include "benchdata/dataset.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <filesystem>
#include <limits>
#include <set>

#include "simnet/allocation.hpp"
#include "simnet/network.hpp"
#include "simnet/topology.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace acclaim::bench {

void Dataset::add(const BenchmarkPoint& point, const Measurement& m) {
  data_[point] = m;
}

bool Dataset::contains(const BenchmarkPoint& point) const { return data_.count(point) > 0; }

const Measurement& Dataset::at(const BenchmarkPoint& point) const {
  const auto it = data_.find(point);
  if (it == data_.end()) {
    throw NotFoundError("dataset has no measurement for " + point.to_string());
  }
  return it->second;
}

std::vector<BenchmarkPoint> Dataset::points() const {
  std::vector<BenchmarkPoint> out;
  out.reserve(data_.size());
  for (const auto& [p, m] : data_) {
    out.push_back(p);
  }
  return out;
}

std::vector<BenchmarkPoint> Dataset::points(coll::Collective c) const {
  std::vector<BenchmarkPoint> out;
  for (const auto& [p, m] : data_) {
    if (p.scenario.collective == c) {
      out.push_back(p);
    }
  }
  return out;
}

std::vector<Scenario> Dataset::scenarios(coll::Collective c) const {
  std::set<Scenario> seen;
  for (const auto& [p, m] : data_) {
    if (p.scenario.collective == c) {
      seen.insert(p.scenario);
    }
  }
  return {seen.begin(), seen.end()};
}

std::vector<std::uint64_t> Dataset::message_sizes(coll::Collective c) const {
  std::set<std::uint64_t> seen;
  for (const auto& [p, m] : data_) {
    if (p.scenario.collective == c) {
      seen.insert(p.scenario.msg_bytes);
    }
  }
  return {seen.begin(), seen.end()};
}

coll::Algorithm Dataset::best_algorithm(const Scenario& s) const {
  coll::Algorithm best = coll::Algorithm::BcastBinomial;
  double best_us = std::numeric_limits<double>::infinity();
  for (coll::Algorithm a : coll::algorithms_for(s.collective)) {
    const auto it = data_.find(BenchmarkPoint{s, a});
    if (it != data_.end() && it->second.mean_us < best_us) {
      best_us = it->second.mean_us;
      best = a;
    }
  }
  if (!std::isfinite(best_us)) {
    throw NotFoundError("dataset has no measurements for scenario " + s.to_string());
  }
  return best;
}

double Dataset::best_time_us(const Scenario& s) const {
  return at(BenchmarkPoint{s, best_algorithm(s)}).mean_us;
}

double Dataset::time_us(const Scenario& s, coll::Algorithm a) const {
  return at(BenchmarkPoint{s, a}).mean_us;
}

double Dataset::total_collection_cost_s() const {
  double t = 0.0;
  for (const auto& [p, m] : data_) {
    t += m.collect_cost_s;
  }
  return t;
}

void Dataset::save(const std::string& path) const {
  util::CsvWriter w(path);
  w.header({"collective", "algorithm", "nnodes", "ppn", "msg_bytes", "mean_us", "stddev_us",
            "iterations", "collect_cost_s"});
  for (const auto& [p, m] : data_) {
    w.row({coll::collective_name(p.scenario.collective), coll::algorithm_info(p.algorithm).name,
           std::to_string(p.scenario.nnodes), std::to_string(p.scenario.ppn),
           std::to_string(p.scenario.msg_bytes), util::format_double(m.mean_us),
           util::format_double(m.stddev_us), std::to_string(m.iterations),
           util::format_double(m.collect_cost_s)});
  }
}

namespace {

/// CSV cells are untrusted input (datasets are shipped between machines and
/// edited by hand): parse with row/column context and an explicit range
/// instead of letting std::stoi throw a bare std::invalid_argument — or,
/// worse, silently accept a negative node count.
long long checked_cell_int(const std::string& cell, const char* column, std::size_t row,
                           long long lo, long long hi) {
  long long v = 0;
  const char* begin = cell.data();
  const char* end = begin + cell.size();
  const auto [ptr, ec] = std::from_chars(begin, end, v);
  if (ec != std::errc{} || ptr != end || cell.empty()) {
    throw ParseError("dataset cell '" + cell + "' in column '" + column +
                         "' is not an integer",
                     row, 0);
  }
  require(v >= lo && v <= hi, "dataset column '" + std::string(column) + "' row " +
                                  std::to_string(row) + ": " + std::to_string(v) +
                                  " out of range [" + std::to_string(lo) + ", " +
                                  std::to_string(hi) + "]");
  return v;
}

double checked_cell_double(const std::string& cell, const char* column, std::size_t row) {
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(cell, &pos);
  } catch (const std::exception&) {
    throw ParseError("dataset cell '" + cell + "' in column '" + column +
                         "' is not a number",
                     row, 0);
  }
  if (pos != cell.size() || !std::isfinite(v) || v < 0.0) {
    throw ParseError("dataset cell '" + cell + "' in column '" + column +
                         "' must be a finite non-negative number",
                     row, 0);
  }
  return v;
}

}  // namespace

Dataset Dataset::load(const std::string& path) {
  const util::CsvTable t = util::read_csv(path);
  const std::size_t c_coll = t.column_index("collective");
  const std::size_t c_alg = t.column_index("algorithm");
  const std::size_t c_nodes = t.column_index("nnodes");
  const std::size_t c_ppn = t.column_index("ppn");
  const std::size_t c_msg = t.column_index("msg_bytes");
  const std::size_t c_mean = t.column_index("mean_us");
  const std::size_t c_std = t.column_index("stddev_us");
  const std::size_t c_iter = t.column_index("iterations");
  const std::size_t c_cost = t.column_index("collect_cost_s");
  Dataset ds;
  std::size_t rowno = 1;  // header is row 0
  for (const auto& row : t.rows) {
    BenchmarkPoint p;
    p.scenario.collective = coll::parse_collective(row[c_coll]);
    p.algorithm = coll::parse_algorithm(p.scenario.collective, row[c_alg]);
    // Bounds match the serving layer's caps (serve/protocol.hpp): per-field
    // limits plus a joint rank cap so nranks() stays int-safe downstream.
    p.scenario.nnodes = static_cast<int>(
        checked_cell_int(row[c_nodes], "nnodes", rowno, 1, std::int64_t{1} << 22));
    p.scenario.ppn = static_cast<int>(
        checked_cell_int(row[c_ppn], "ppn", rowno, 1, std::int64_t{1} << 16));
    require(static_cast<std::int64_t>(p.scenario.nnodes) * p.scenario.ppn <=
                (std::int64_t{1} << 28),
            "dataset row " + std::to_string(rowno) + ": nnodes x ppn exceeds the rank cap");
    p.scenario.msg_bytes = static_cast<std::uint64_t>(
        checked_cell_int(row[c_msg], "msg_bytes", rowno, 1, std::int64_t{1} << 62));
    Measurement m;
    m.mean_us = checked_cell_double(row[c_mean], "mean_us", rowno);
    m.stddev_us = checked_cell_double(row[c_std], "stddev_us", rowno);
    m.iterations = static_cast<int>(checked_cell_int(row[c_iter], "iterations", rowno, 0,
                                                     std::numeric_limits<int>::max()));
    m.collect_cost_s = checked_cell_double(row[c_cost], "collect_cost_s", rowno);
    ds.add(p, m);
    ++rowno;
  }
  return ds;
}

Dataset precollect(const simnet::MachineConfig& machine, const FeatureGrid& grid,
                   const std::vector<coll::Collective>& collectives, std::uint64_t seed) {
  require(!grid.nodes.empty() && !grid.ppns.empty() && !grid.msgs.empty(),
          "precollect requires a non-empty grid");
  const int max_nodes = *std::max_element(grid.nodes.begin(), grid.nodes.end());
  require(max_nodes <= machine.total_nodes, "grid exceeds machine size");
  const simnet::Topology topo(machine);
  const simnet::NetworkModel net(topo, seed);
  const Microbenchmark mb(net);
  util::Rng rng(seed ^ 0xd1b54a32d192ed03ULL);
  std::vector<int> ids(static_cast<std::size_t>(max_nodes));
  for (int i = 0; i < max_nodes; ++i) {
    ids[static_cast<std::size_t>(i)] = i;
  }
  const simnet::Allocation alloc(ids);

  // Parallel collection with the seed's exact noise sequence: the per-point
  // rngs are split off serially in grid order (identical to the historical
  // sequential loop), the simulated runs fan out on the global pool with
  // each body writing only its own slot, and the dataset is assembled
  // serially — so the resulting CSV is bitwise-identical for any thread
  // count, including 1.
  Dataset ds;
  for (coll::Collective c : collectives) {
    const std::vector<BenchmarkPoint> points = grid.points(c);
    std::vector<util::Rng> rngs;
    rngs.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      rngs.push_back(rng.split());
    }
    std::vector<Measurement> results(points.size());
    util::global_pool().parallel_for(0, points.size(), [&](std::size_t i) {
      results[i] = mb.run(points[i], alloc, rngs[i]);
    });
    for (std::size_t i = 0; i < points.size(); ++i) {
      ds.add(points[i], results[i]);
    }
    AC_LOG_INFO() << "precollected " << coll::collective_name(c) << " (" << points.size()
                  << " points)";
  }
  return ds;
}

Dataset load_or_collect(const std::string& path, const simnet::MachineConfig& machine,
                        const FeatureGrid& grid, const std::vector<coll::Collective>& collectives,
                        std::uint64_t seed) {
  if (std::filesystem::exists(path)) {
    AC_LOG_INFO() << "loading dataset from " << path;
    return Dataset::load(path);
  }
  AC_LOG_INFO() << "collecting dataset into " << path;
  Dataset ds = precollect(machine, grid, collectives, seed);
  const auto dir = std::filesystem::path(path).parent_path();
  if (!dir.empty()) {
    std::filesystem::create_directories(dir);
  }
  ds.save(path);
  // Return what every later run will load: the file stores rounded values,
  // so handing back the in-memory collection would make the first run differ.
  return Dataset::load(path);
}

}  // namespace acclaim::bench
