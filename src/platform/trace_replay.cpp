#include "platform/trace_replay.hpp"

#include <set>

#include "util/error.hpp"

namespace acclaim::platform {

ReplayResult replay_trace(const std::vector<traces::CollectiveCall>& trace, int nnodes, int ppn,
                          const core::Selector& select, const TimeSource& time_us) {
  require(!trace.empty(), "cannot replay an empty trace");
  require(nnodes >= 1 && ppn >= 1, "replay needs a valid job geometry");
  ReplayResult result;
  // Memoize per distinct (collective, msg) cell: traces repeat sizes heavily.
  std::map<std::pair<int, std::uint64_t>, double> cell_us;
  for (const traces::CollectiveCall& call : trace) {
    const auto key = std::make_pair(static_cast<int>(call.collective), call.msg_bytes);
    auto it = cell_us.find(key);
    if (it == cell_us.end()) {
      const bench::Scenario s{call.collective, nnodes, ppn, call.msg_bytes};
      const double us = time_us(s, select(s));
      it = cell_us.emplace(key, us).first;
    }
    result.total_us += it->second;
    result.per_collective_s[call.collective] += it->second * 1e-6;
    ++result.calls;
  }
  result.total_s = result.total_us * 1e-6;
  result.distinct_scenarios = cell_us.size();
  return result;
}

double replay_speedup(const std::vector<traces::CollectiveCall>& trace, int nnodes, int ppn,
                      const core::Selector& tuned, const core::Selector& baseline,
                      const TimeSource& time_us) {
  const double tuned_s = replay_trace(trace, nnodes, ppn, tuned, time_us).total_s;
  const double base_s = replay_trace(trace, nnodes, ppn, baseline, time_us).total_s;
  require(tuned_s > 0.0, "tuned replay produced zero time");
  return base_s / tuned_s;
}

}  // namespace acclaim::platform
