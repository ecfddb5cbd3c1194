// serve: one closed-loop client sends NDJSON requests through
// Daemon::handle_line; every few thousand requests a model is republished
// through ServeCore::publish (writes beside reads).
//
// The request mix is loadgen_serve's: a P2 grid sweep plus trace-drawn
// message sizes. One round in 8 sends 64 single queries, the other rounds
// one 64-scenario batch. The served models come from a small real tuning
// job (theta-like, 8 nodes x 8 ppn) trained while the inputs are generated,
// so the served answers have an oracle regret and a training cost. The
// unix-socket transport is left out: kernel wake-ups on a shared host would
// swamp a 5 us request.
#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "collectives/types.hpp"
#include "core/model.hpp"
#include "core/pipeline.hpp"
#include "harness.hpp"
#include "regret.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "serve/serve_core.hpp"
#include "simnet/machine.hpp"
#include "telemetry/metrics.hpp"
#include "traces/traces.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace acclaim;

namespace {

constexpr int kRounds = 2000;
constexpr std::size_t kBatch = 64;
constexpr std::size_t kRepublishEvery = 2000;  // requests
constexpr double kTraceFrac = 0.5;
constexpr std::size_t kDistinctCap = 20000;

struct Inputs {
  /// The tuning job whose models are served.
  std::unique_ptr<core::AcclaimPipeline> pipeline;
  core::JobSpec spec;
  core::PipelineResult job;
  /// Serialized models: loading them is part of the daemon's set-up.
  std::vector<std::pair<coll::Collective, std::string>> model_json;
  std::vector<std::string> warmup;
  std::vector<std::string> lines;
  std::vector<bool> single;  ///< parallel to lines: single query vs batch
  std::vector<bench::Scenario> distinct;
};

std::string query_line(const bench::Scenario& s) {
  serve::Request req;
  req.op = serve::Op::Query;
  req.queries = {s};
  return serve::request_to_json(req).dump();
}

std::string batch_line(std::vector<bench::Scenario> scenarios) {
  serve::Request req;
  req.op = serve::Op::Batch;
  req.queries = std::move(scenarios);
  return serve::request_to_json(req).dump();
}

Inputs make_inputs(const Options& opts) {
  Inputs in;
  in.spec.collectives = coll::paper_collectives();
  in.spec.nnodes = opts.tiny ? 4 : 8;
  in.spec.ppn = opts.tiny ? 4 : 8;
  in.spec.job_seed = util::Rng(opts.seed ^ 0x7365'7276ULL).next_u64();
  in.spec.machine_busy_fraction = 0.0;
  core::ActiveLearnerConfig learner;
  learner.forest.n_trees = opts.tiny ? 10 : 50;
  learner.min_points = opts.tiny ? 12 : 40;
  learner.max_points = learner.min_points;
  in.pipeline = std::make_unique<core::AcclaimPipeline>(simnet::theta_like(), learner);
  in.job = in.pipeline->run(in.spec);
  for (const core::TrainedCollective& t : in.job.trained) {
    in.model_json.emplace_back(t.model.collective(), t.model.to_json().dump());
  }

  const std::vector<coll::Collective>& served = in.spec.collectives;
  std::vector<bench::Scenario> grid;
  for (coll::Collective c : served) {
    for (int nodes = 2; nodes <= 64; nodes *= 2) {
      for (int ppn = 1; ppn <= 32; ppn *= 2) {
        for (std::uint64_t msg = 8; msg <= (1u << 20); msg *= 2) {
          grid.push_back({c, nodes, ppn, msg});
        }
      }
    }
  }
  // Warm-up: the whole P2 grid in batches, and a few single queries.
  for (std::size_t i = 0; i < grid.size(); i += kBatch) {
    in.warmup.push_back(batch_line(
        {grid.begin() + static_cast<long>(i),
         grid.begin() + static_cast<long>(std::min(grid.size(), i + kBatch))}));
  }
  for (std::size_t i = 0; i < kBatch; ++i) {
    in.warmup.push_back(query_line(grid[i]));
  }

  util::Rng rng(opts.seed ^ 0x7265'7173ULL);
  std::vector<traces::CollectiveCall> trace_pool;
  for (const traces::AppTraceSpec& app : traces::llnl_like_apps()) {
    for (const traces::CollectiveCall& call : traces::generate_trace(app, 64, 4096, rng)) {
      if (std::find(served.begin(), served.end(), call.collective) != served.end()) {
        trace_pool.push_back(call);
      }
    }
  }
  const auto draw = [&]() {
    bench::Scenario s;
    s.nnodes = 1 << rng.uniform_int(1, 6);
    s.ppn = 1 << rng.uniform_int(0, 5);
    if (rng.chance(kTraceFrac)) {
      const traces::CollectiveCall& call = trace_pool[rng.index(trace_pool.size())];
      s.collective = call.collective;
      s.msg_bytes = call.msg_bytes;
    } else {
      s.collective = served[rng.index(served.size())];
      s.msg_bytes = std::uint64_t{1} << rng.uniform_int(3, 20);
    }
    return s;
  };
  std::set<bench::Scenario> seen;
  const int rounds = opts.tiny ? 80 : kRounds;
  for (int round = 0; round < rounds; ++round) {
    std::vector<bench::Scenario> request;
    for (std::size_t i = 0; i < kBatch; ++i) {
      request.push_back(draw());
      if (seen.size() < kDistinctCap && seen.insert(request.back()).second) {
        in.distinct.push_back(request.back());
      }
    }
    if (round % 8 == 0) {
      for (const bench::Scenario& s : request) {
        in.lines.push_back(query_line(s));
        in.single.push_back(true);
      }
    } else {
      in.lines.push_back(batch_line(std::move(request)));
      in.single.push_back(false);
    }
  }
  return in;
}

/// The daemon after set-up: models loaded and published, cache warm.
struct Served {
  std::unique_ptr<serve::ServeCore> core;
  std::map<coll::Collective, core::CollectiveModel> models;
  std::unique_ptr<serve::Daemon> daemon;
  std::size_t publishes = 0;

  /// Republishes one model (round robin): a new snapshot version, so the
  /// cached answers for its collective go stale.
  void republish() {
    auto it = models.begin();
    std::advance(it, static_cast<long>(publishes++ % models.size()));
    core->publish(serve::ModelKey{it->first, 0, "default"}, it->second);
  }
};

Served set_up(const Inputs& in) {
  Served d;
  d.core = std::make_unique<serve::ServeCore>();
  for (const auto& [c, json] : in.model_json) {
    core::CollectiveModel model = core::CollectiveModel::from_json(util::Json::parse(json));
    d.core->publish(serve::ModelKey{c, 0, "default"}, model);
    d.models.emplace(c, std::move(model));
  }
  d.daemon = std::make_unique<serve::Daemon>(*d.core);
  for (const std::string& line : in.warmup) {
    d.daemon->handle_line(line);
  }
  return d;
}

/// True for an {"ok":true,...} response. The prefix test is the fast path;
/// anything else is parsed.
bool response_ok(const std::string& resp) {
  static const std::string kOk = "{\"ok\":true";
  if (resp.compare(0, kOk.size(), kOk) == 0) {
    return true;
  }
  try {
    const util::Json doc = util::Json::parse(resp);
    return doc.contains("ok") && doc.at("ok").is_bool() && doc.at("ok").as_bool();
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

Result run_serve(const Options& opts) {
  Result r;
  const Inputs in = make_inputs(opts);
  std::cout << "serve: " << in.lines.size() << " requests per pass, " << in.distinct.size()
            << " distinct scenarios, republish every " << kRepublishEvery
            << " requests; served models trained in " << in.job.total_training_s
            << " simulated s\n";

  // Each pass serves the request stream from a daemon set up just before
  // it, so every pass starts from the same state and must return the same
  // response stream. The previous pass's daemon is discarded first, so one
  // daemon is alive at a time. A pass's time is the daemon's busy time
  // (handle_line and publish calls); the client's own checks between
  // requests are left out. Latencies are exact per-request samples; each
  // pass's percentiles are kept and their median over passes reported.
  std::optional<Served> d;
  std::vector<double> single_us;
  std::vector<double> batch_us;
  std::vector<double> query_p50;
  std::vector<double> query_p99;
  std::vector<double> batch_p50;
  const auto discard = [&] { d.reset(); };
  const auto build = [&] { d.emplace(set_up(in)); };
  const Phase phase = run_phase(opts.seconds, discard, build, [&](int rep) {
    double busy = 0.0;
    std::uint64_t stream_hash = kFnvOffset;
    single_us.clear();
    batch_us.clear();
    for (std::size_t i = 0; i < in.lines.size(); ++i) {
      const auto t0 = Clock::now();
      const std::string resp = d->daemon->handle_line(in.lines[i]);
      const double us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
      busy += us * 1e-6;
      (in.single[i] ? single_us : batch_us).push_back(us);
      ++r.attempted;
      if (!response_ok(resp)) {
        ++r.failed;
      }
      stream_hash = fnv1a(resp, fnv1a("\n", stream_hash));
      if ((i + 1) % kRepublishEvery == 0) {
        const auto p0 = Clock::now();
        d->republish();
        busy += seconds_since(p0);
      }
    }
    query_p50.push_back(quantile(single_us, 0.5));
    query_p99.push_back(quantile(single_us, 0.99));
    batch_p50.push_back(quantile(batch_us, 0.5));
    if (rep == 0) {
      r.fingerprint = hex64(stream_hash);
    } else if (hex64(stream_hash) != r.fingerprint) {
      r.fail("serve pass " + std::to_string(rep) + " changed the response stream");
    }
    return busy;
  });
  add_phase_metrics(r, phase);
  const std::vector<double>& walls = phase.unit_s;

  // Differential check: every distinct scenario asked again must match
  // CollectiveModel::select on the published model.
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < in.distinct.size(); ++i) {
    const bench::Scenario& s = in.distinct[i];
    std::string resp = d->daemon->handle_line(query_line(s));
    if (static_cast<long>(i) == opts.corrupt_response) {
      const std::size_t at = resp.find("\"algorithm\":\"");
      if (at != std::string::npos) {
        resp.insert(at + 13, "corrupted-");
      }
    }
    ++r.attempted;
    const std::string want = coll::algorithm_info(d->models.at(s.collective).select(s)).name;
    bool ok = false;
    try {
      const util::Json doc = util::Json::parse(resp);
      ok = response_ok(resp) && doc.at("algorithm").as_string() == want;
    } catch (const std::exception&) {
      ok = false;
    }
    if (!ok) {
      ++r.failed;
      if (++mismatches <= 3) {
        std::cerr << "perfbench: served answer differs from direct selection at "
                  << s.to_string() << ": " << resp << "\n";
      }
    }
  }
  if (mismatches > 0) {
    r.fail(std::to_string(mismatches) + " served answers differ from direct selection");
  }

  // Oracle regret of the served answers over the serving job's space.
  double regret_pct = 0.0;
  {
    const auto t0 = Clock::now();
    OraclePricer pricer(in.pipeline->topology(), in.spec.job_seed);
    util::Rng rng(opts.seed ^ 0x7265'6772ULL);
    for (const auto& [c, model] : d->models) {
      for (const bench::Scenario& s : regret_space(c, in.spec.nnodes, in.spec.ppn,
                                                   in.spec.min_msg, in.spec.max_msg, rng)) {
        pricer.add(s, model.select(s), in.job.allocation);
      }
    }
    std::cout << pricer.summary() << ", priced in " << seconds_since(t0) << " s\n";
    regret_pct = pricer.tuned_pct();
  }

  std::cout << "latency, median over " << walls.size() << " passes of " << single_us.size()
            << " single queries and " << batch_us.size() << " batches each: query p50 "
            << median(query_p50) << " us, p99 " << median(query_p99) << " us; batch p50 "
            << median(batch_p50) << " us\n";

  if (!opts.trace) {
    return r;
  }
  r.add_layer("quality.regret_pct", regret_pct, "%");
  r.add_layer("quality.sim_training_s", in.job.total_training_s, "sim_s");
  r.add_layer("serve.query_p50_us", median(query_p50), "us");
  r.add_layer("serve.query_p99_us", median(query_p99), "us");
  r.add_layer("serve.batch_p50_us", median(batch_p50), "us");

  // Traced pass from a fresh set-up, so it must reproduce the timed passes'
  // response stream exactly.
  Served t = set_up(in);
  const RegistrySnapshot names = RegistrySnapshot::take();
  std::vector<telemetry::Histogram*> select_hists;
  for (const char* name : {"serve.query_us", "serve.batch_us"}) {
    if (names.hist_sum(name)) {
      select_hists.push_back(&telemetry::metrics().histogram(name));
    }
  }
  const auto select_sum_s = [&]() {
    double us = 0.0;
    for (const telemetry::Histogram* h : select_hists) {
      us += h->sum();
    }
    return us * 1e-6;
  };

  SpanLog spans;
  RegistryDelta delta;
  const serve::DecisionCache::Stats stats0 = t.core->cache_stats();
  delta.before = RegistrySnapshot::take();
  double parse_s = 0.0;
  double select_s = 0.0;
  double encode_s = 0.0;
  double publish_s = 0.0;
  double traced_busy = 0.0;
  std::uint64_t traced_hash = kFnvOffset;
  for (std::size_t i = 0; i < in.lines.size(); ++i) {
    const int req = spans.open("request", i);
    const int parse = spans.open("parse_request", i, req);
    try {
      serve::parse_request(in.lines[i]);
    } catch (const std::exception&) {
      // handle_line turns the same error into a response.
    }
    spans.close(parse);
    const double select0 = select_sum_s();
    const int handle = spans.open("handle_line", i, req);
    const std::string resp = t.daemon->handle_line(in.lines[i]);
    spans.close(handle);
    spans.close(req);
    const double select = select_sum_s() - select0;
    // handle_line parses the line again internally: charge that, and the
    // registry's select time, as its children.
    spans.add_child_time(handle, select + spans.duration(parse));
    parse_s += spans.duration(parse);
    select_s += select;
    encode_s += spans.duration(handle) - select - spans.duration(parse);
    traced_busy += spans.duration(req);
    traced_hash = fnv1a(resp, fnv1a("\n", traced_hash));
    if ((i + 1) % kRepublishEvery == 0) {
      const int pub = spans.open("publish", i);
      t.republish();
      spans.close(pub);
      publish_s += spans.duration(pub);
      traced_busy += spans.duration(pub);
    }
  }
  delta.after = RegistrySnapshot::take();
  const serve::DecisionCache::Stats stats1 = t.core->cache_stats();
  r.traced_fingerprint = hex64(traced_hash);

  const double hits = static_cast<double>(stats1.hits - stats0.hits);
  const double misses = static_cast<double>(stats1.misses - stats0.misses);
  r.add_layer("serve.parse_s", parse_s, "s");
  if (select_hists.size() == 2) {
    r.add_layer("serve.select_s", select_s, "s");
    r.add_layer("serve.encode_s", encode_s, "s");
  } else {
    // Without the select time the remainder is not encoding either.
    r.absent.push_back("serve.select_s");
    r.absent.push_back("serve.encode_s");
  }
  r.add_layer("serve.publish_s", publish_s, "s");
  r.add_layer("serve.hit_ratio", hits / std::max(1.0, hits + misses), "ratio");
  r.add_layer("serve.evictions", static_cast<double>(stats1.evictions - stats0.evictions),
              "count");
  layer_or_absent(r, "serve.miss_rows", delta.counter("ml.forest.batched_rows"), "count");
  r.add_layer("trace_overhead_pct", 100.0 * (traced_busy / median(walls) - 1.0), "%");
  if (!spans.write(opts.span_out)) {
    std::cerr << "perfbench: cannot write spans to " << opts.span_out << "\n";
  }
  return r;
}

}  // namespace perfbench
