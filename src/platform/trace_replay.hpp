// Trace replay: run a recorded stream of collective calls through a
// selection policy and account the time it would cost on a given machine.
//
// This closes the loop between the Fig. 4 trace substrate and the tuner:
// instead of a synthetic scenario mix, an application's actual call stream
// (generated or recorded) is priced call-by-call, so "how much would
// ACCLAiM's rules save *this* application" becomes a one-call question.
#pragma once

#include <map>
#include <vector>

#include "core/evaluator.hpp"
#include "platform/app_model.hpp"
#include "traces/traces.hpp"

namespace acclaim::platform {

/// Replay accounting for one selector.
struct ReplayResult {
  double total_us = 0.0;                ///< per-call times summed in trace order
  double total_s = 0.0;                 ///< total_us in seconds
  std::size_t calls = 0;
  std::size_t distinct_scenarios = 0;   ///< unique (collective,msg) cells priced
  /// Time per collective, for attribution.
  std::map<coll::Collective, double> per_collective_s;
};

/// Prices every call of `trace` on the job geometry (nnodes, ppn) using
/// `select` for the algorithm and `time_us` for the latency. Lookups are
/// memoized per distinct (collective, msg) cell, so million-call traces
/// replay in milliseconds.
ReplayResult replay_trace(const std::vector<traces::CollectiveCall>& trace, int nnodes, int ppn,
                          const core::Selector& select, const TimeSource& time_us);

/// Convenience: speedup of `tuned` over `baseline` on the same trace.
double replay_speedup(const std::vector<traces::CollectiveCall>& trace, int nnodes, int ppn,
                      const core::Selector& tuned, const core::Selector& baseline,
                      const TimeSource& time_us);

}  // namespace acclaim::platform
