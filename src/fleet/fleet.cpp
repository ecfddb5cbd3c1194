#include "fleet/fleet.hpp"

#include <algorithm>
#include <bit>
#include <queue>
#include <set>
#include <sstream>
#include <utility>

#include "core/env.hpp"
#include "core/heuristic.hpp"
#include "platform/trace_replay.hpp"
#include "serve/protocol.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace acclaim::fleet {

namespace {

/// Cap on the labeled points a job republishes (fresh points first, then
/// inherited support), so transfer payloads stay bounded as chains grow.
constexpr std::size_t kMaxSupportPoints = 256;
/// Fraction of app iteration time spent outside collectives when
/// translating the collective-time ratio into an app speedup.
constexpr double kComputeFraction = 0.7;

/// Exact bit pattern of a double as 16 hex digits — the fingerprint must
/// distinguish values that round-trip identically through formatting.
std::string hex_bits(double v) {
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(15 - i)] = digits[(bits >> (4 * i)) & 0xF];
  }
  return out;
}

/// The app's top-k collectives by mix weight (ties toward the smaller enum
/// value, so the tuned set is a pure function of the spec).
std::vector<coll::Collective> top_collectives(const traces::AppTraceSpec& app, int k) {
  std::vector<std::pair<double, coll::Collective>> ranked;
  for (const auto& [c, w] : app.mix) {
    ranked.emplace_back(w, c);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) {
      return a.first > b.first;
    }
    return static_cast<int>(a.second) < static_cast<int>(b.second);
  });
  std::vector<coll::Collective> out;
  for (const auto& [w, c] : ranked) {
    if (static_cast<int>(out.size()) >= k) {
      break;
    }
    out.push_back(c);
  }
  return out;
}

/// One finished job's publications, held back until the simulated clock
/// reaches the job's completion time.
struct PendingPublish {
  double completion_s = 0.0;
  std::uint64_t job_id = 0;
  struct Item {
    serve::ModelKey key;
    core::CollectiveModel model;
    std::shared_ptr<const std::vector<core::LabeledPoint>> support;
  };
  std::vector<Item> items;
};

struct PendingLater {
  bool operator()(const PendingPublish& a, const PendingPublish& b) const {
    if (a.completion_s != b.completion_s) {
      return a.completion_s > b.completion_s;
    }
    return a.job_id > b.job_id;
  }
};

/// Fresh points first, then inherited support rows not overridden by a
/// fresh measurement at the same (scenario, algorithm), up to
/// kMaxSupportPoints.
std::vector<core::LabeledPoint> merge_support(const std::vector<core::LabeledPoint>& fresh,
                                              const std::vector<core::LabeledPoint>* inherited) {
  std::vector<core::LabeledPoint> out;
  std::set<bench::BenchmarkPoint> seen;
  for (const core::LabeledPoint& lp : fresh) {
    if (out.size() >= kMaxSupportPoints) {
      break;
    }
    if (seen.insert(lp.point).second) {
      out.push_back(lp);
    }
  }
  if (inherited != nullptr) {
    for (const core::LabeledPoint& lp : *inherited) {
      if (out.size() >= kMaxSupportPoints) {
        break;
      }
      if (seen.insert(lp.point).second) {
        out.push_back(lp);
      }
    }
  }
  return out;
}

void validate(const FleetConfig& config) {
  config.machine.validate();
  require(config.collectives_per_job >= 1, "fleet jobs must tune at least one collective");
  require(config.trace_calls >= 1, "fleet speedup pricing needs at least one trace call");
  require(config.max_transfer_distance >= 0.0, "transfer distance cutoff must be >= 0");
  for (int n : config.stream.node_choices) {
    require(n <= config.machine.total_nodes, "job node choice exceeds the machine");
  }
}

}  // namespace

FleetResult replay_fleet(const FleetConfig& config, serve::ModelStore& store) {
  validate(config);
  const std::vector<traces::JobArrival> arrivals = traces::generate_job_stream(config.stream);
  const core::AcclaimPipeline pipeline(config.machine, config.learner, config.rulegen);
  const std::string topo_sig = config.machine.name;

  static telemetry::Counter& jobs_counter = telemetry::metrics().counter("fleet.jobs");
  static telemetry::Counter& warm_counter = telemetry::metrics().counter("fleet.warm_jobs");
  static telemetry::Gauge& training_gauge = telemetry::metrics().gauge("fleet.training_s");
  static telemetry::Histogram& distance_hist =
      telemetry::metrics().histogram("fleet.transfer_distance", {1e-3, 24});
  static telemetry::Histogram& breakeven_hist =
      telemetry::metrics().histogram("fleet.breakeven_s", {1e-2, 40});

  std::priority_queue<PendingPublish, std::vector<PendingPublish>, PendingLater> pending;
  FleetResult result;
  result.jobs.reserve(arrivals.size());
  std::ostringstream fp;

  for (const traces::JobArrival& arrival : arrivals) {
    // Models trained by earlier jobs become visible once the simulated
    // clock passes their completion — a job cannot transfer from a peer
    // still training when it arrives.
    while (!pending.empty() && pending.top().completion_s <= arrival.arrival_s) {
      for (const PendingPublish::Item& item : pending.top().items) {
        store.publish(item.key, item.model, item.support);
      }
      pending.pop();
    }

    JobOutcome outcome;
    outcome.job_id = arrival.job_id;
    outcome.app = arrival.app.name;
    outcome.nnodes = arrival.nnodes;
    outcome.ppn = arrival.ppn;
    outcome.arrival_s = arrival.arrival_s;

    const std::vector<coll::Collective> collectives =
        top_collectives(arrival.app, config.collectives_per_job);
    outcome.total_collectives = static_cast<int>(collectives.size());
    // nnodes/ppn originate from CLI-provided choice lists with no upper
    // bound, so the product must go through the joint rank cap — a plain
    // int multiply can overflow.
    const int nranks = serve::checked_comm_size(arrival.nnodes, arrival.ppn);

    core::WarmStartMap warm;
    double distance_sum = 0.0;
    if (config.warm_start) {
      for (coll::Collective c : collectives) {
        const serve::ModelKey want{c, nranks, topo_sig};
        const serve::NearestMatch match = store.nearest(want, config.max_transfer_distance);
        // A donor without its training points cannot survive a refit, so
        // only snapshots that shipped support are usable for transfer.
        if (match.snapshot == nullptr || match.snapshot->support == nullptr ||
            match.snapshot->support->empty()) {
          continue;
        }
        core::WarmStart ws;
        ws.model = match.snapshot->model;
        ws.support = *match.snapshot->support;
        warm.emplace(c, std::move(ws));
        distance_sum += match.distance;
        ++outcome.warm_collectives;
      }
    }
    if (outcome.warm_collectives > 0) {
      outcome.transfer_distance = distance_sum / outcome.warm_collectives;
    }

    // Each job trains the message range its application actually sends
    // (type size << count range, P2 by construction) — pricing the job's
    // trace with rules trained on a narrower range would charge the tuned
    // side for extrapolation the fleet never asked of it. JobSpec's default
    // range only clamps the extremes.
    std::uint64_t app_min = ~std::uint64_t{0};
    std::uint64_t app_max = 0;
    for (const std::uint64_t ts : arrival.app.type_sizes) {
      app_min = std::min(app_min, ts << arrival.app.min_count_log2);
      app_max = std::max(app_max, ts << arrival.app.max_count_log2);
    }
    core::JobSpec spec;
    spec.collectives = collectives;
    spec.nnodes = arrival.nnodes;
    spec.ppn = arrival.ppn;
    spec.min_msg = std::clamp(app_min, spec.min_msg, spec.max_msg);
    spec.max_msg = std::clamp(app_max, spec.min_msg, spec.max_msg);
    spec.job_seed = arrival.job_seed;
    const core::PipelineResult run = pipeline.run(spec, warm);

    outcome.training_s = run.total_training_s;
    for (const core::CollectiveTrainingSummary& s : run.training) {
      outcome.points += s.points;
    }
    outcome.completion_s = arrival.arrival_s + run.total_training_s;

    // Price the job's own trace under the tuned rules vs the MPICH default
    // with the deterministic cost model (no noise): the tuned/default
    // collective-time ratio becomes the Fig. 15 app speedup.
    {
      util::Rng trace_rng = util::Rng::stream(arrival.job_seed, 0xF1EEDULL);
      const std::vector<traces::CollectiveCall> trace =
          traces::generate_trace(arrival.app, arrival.nnodes, config.trace_calls, trace_rng);
      const core::LiveEnvironment env(pipeline.topology(), run.allocation, arrival.job_seed);
      const core::SelectionEngine engine = run.engine();
      const platform::TimeSource time_us = [&](const bench::Scenario& s, coll::Algorithm a) {
        return env.predicted_solo_us(core::ScheduledBenchmark{{s, a}, 0});
      };
      const core::Selector tuned = [&](const bench::Scenario& s) {
        return engine.covers(s.collective) ? engine.select(s) : core::mpich_default_selection(s);
      };
      const double tuned_us =
          platform::replay_trace(trace, arrival.nnodes, arrival.ppn, tuned, time_us).total_us;
      const double default_us =
          platform::replay_trace(trace, arrival.nnodes, arrival.ppn,
                                 core::mpich_default_selection, time_us)
              .total_us;
      if (default_us > 0.0) {
        const double ratio = tuned_us / default_us;
        outcome.speedup =
            1.0 / (kComputeFraction + (1.0 - kComputeFraction) * ratio);
      }
      if (outcome.speedup > 1.0) {
        outcome.breakeven_s = platform::breakeven_runtime_s(outcome.training_s, outcome.speedup);
      }
    }

    // Queue this job's publications for its completion time; later arrivals
    // republish the same (collective, scale, topology) keys, exercising the
    // store's version ordering at fleet scale.
    PendingPublish pub;
    pub.completion_s = outcome.completion_s;
    pub.job_id = arrival.job_id;
    for (std::size_t i = 0; i < run.trained.size(); ++i) {
      const coll::Collective c = run.training[i].collective;
      const std::vector<core::LabeledPoint>* inherited = nullptr;
      if (const auto it = warm.find(c); it != warm.end()) {
        inherited = &it->second.support;
      }
      auto support = std::make_shared<const std::vector<core::LabeledPoint>>(
          merge_support(run.trained[i].points, inherited));
      pub.items.push_back(PendingPublish::Item{serve::ModelKey{c, nranks, topo_sig},
                                               run.trained[i].model, std::move(support)});
    }
    pending.push(std::move(pub));

    jobs_counter.add();
    training_gauge.add(outcome.training_s);
    if (outcome.warm_collectives > 0) {
      warm_counter.add();
      distance_hist.observe(outcome.transfer_distance);
    }
    if (outcome.breakeven_s >= 0.0) {
      breakeven_hist.observe(outcome.breakeven_s);
    }
    if (telemetry::tracer().enabled()) {
      telemetry::TraceEvent ev;
      ev.kind = telemetry::EventKind::FleetJob;
      ev.label = outcome.app;
      ev.fields["job_id"] = outcome.job_id;
      ev.fields["nnodes"] = outcome.nnodes;
      ev.fields["ppn"] = outcome.ppn;
      ev.fields["warm_collectives"] = outcome.warm_collectives;
      ev.fields["points"] = outcome.points;
      ev.fields["training_s"] = outcome.training_s;
      ev.fields["speedup"] = outcome.speedup;
      telemetry::tracer().record(std::move(ev));
    }

    fp << outcome.job_id << "," << outcome.app << "," << outcome.nnodes << "," << outcome.ppn
       << "," << hex_bits(outcome.arrival_s) << "," << hex_bits(outcome.training_s) << ","
       << outcome.points << "," << outcome.warm_collectives << ","
       << hex_bits(outcome.transfer_distance) << "," << hex_bits(outcome.speedup) << ","
       << hex_bits(outcome.breakeven_s) << ";";
    result.jobs.push_back(std::move(outcome));
  }

  // Flush publications still in flight so the store's final state covers
  // every job (tests and the CLI inspect it).
  while (!pending.empty()) {
    for (const PendingPublish::Item& item : pending.top().items) {
      store.publish(item.key, item.model, item.support);
    }
    pending.pop();
  }

  FleetTotals& t = result.totals;
  t.jobs = result.jobs.size();
  double speedup_sum = 0.0;
  double breakeven_sum = 0.0;
  double distance_sum = 0.0;
  for (const JobOutcome& j : result.jobs) {
    t.points += j.points;
    t.training_s += j.training_s;
    speedup_sum += j.speedup;
    t.makespan_s = std::max(t.makespan_s, j.completion_s);
    if (j.warm_collectives > 0) {
      ++t.warm_jobs;
      distance_sum += j.transfer_distance;
    }
    if (j.breakeven_s >= 0.0) {
      ++t.amortizing_jobs;
      breakeven_sum += j.breakeven_s;
    }
  }
  if (t.jobs > 0) {
    t.mean_speedup = speedup_sum / static_cast<double>(t.jobs);
  }
  if (t.amortizing_jobs > 0) {
    t.mean_breakeven_s = breakeven_sum / static_cast<double>(t.amortizing_jobs);
  }
  if (t.warm_jobs > 0) {
    t.mean_transfer_distance = distance_sum / static_cast<double>(t.warm_jobs);
  }

  // FNV-1a over the per-job records: cheap, deterministic, and any bit flip
  // anywhere in the replay changes it.
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : fp.str()) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  result.fingerprint = hex_bits(std::bit_cast<double>(h));

  AC_LOG_INFO() << "fleet: replayed " << t.jobs << " jobs (" << t.warm_jobs << " warm, "
                << t.points << " points, " << t.training_s << " s simulated training)";
  return result;
}

}  // namespace acclaim::fleet
