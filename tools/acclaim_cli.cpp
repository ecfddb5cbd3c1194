// acclaim — command-line front end for the ACCLAiM autotuning library.
//
// Subcommands:
//   collectives                         list collectives and their algorithms
//   collect    --machine M --nodes N --ppn P --collectives a,b --out FILE
//              exhaustively benchmark a feature grid into a dataset CSV
//   train      --dataset FILE --collective C [--model OUT] [--rules OUT]
//              active-learning training against a precollected dataset
//   tune-job   --machine M --nodes N --ppn P --collectives a,b --rules OUT
//              the full production pipeline (Fig. 1(b)) on a simulated job
//   select     --rules FILE --collective C --nodes N --ppn P --msg SIZE
//              resolve one scenario through a generated rule file
//   inspect    --dataset FILE           dataset summary (per collective)
//   report     TRACE.jsonl              render a run report from a telemetry trace
//   explain    AUDIT.jsonl              replay a decision audit log (--audit-out)
//   breakeven  --training SECONDS --speedup S
//              minimum application runtime that amortizes training (Fig. 15)
#include <iostream>
#include <algorithm>
#include <fstream>
#include <set>
#include <string>

#include "benchdata/dataset.hpp"
#include "cli_args.hpp"
#include "core/acquisition.hpp"
#include "core/active_learner.hpp"
#include "core/evaluator.hpp"
#include "core/heuristic.hpp"
#include "core/pipeline.hpp"
#include "core/model.hpp"
#include "fleet/fleet.hpp"
#include "platform/app_model.hpp"
#include "serve/daemon.hpp"
#include "serve/protocol.hpp"
#include "telemetry/audit.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/report.hpp"
#include "telemetry/trace.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace {

using namespace acclaim;

simnet::MachineConfig machine_by_name(const std::string& name) {
  if (name == "bebop") {
    return simnet::bebop_like();
  }
  if (name == "theta") {
    return simnet::theta_like();
  }
  if (name == "fattree") {
    return simnet::fat_tree_like();
  }
  if (name == "tiny") {
    return simnet::tiny_test_machine();
  }
  throw InvalidArgument("unknown machine '" + name + "' (bebop | theta | fattree | tiny)");
}

std::vector<coll::Collective> collectives_from(const std::string& csv) {
  std::vector<coll::Collective> out;
  for (const std::string& name : cli::split_csv(csv)) {
    out.push_back(coll::parse_collective(name));
  }
  if (out.empty()) {
    throw InvalidArgument("--collectives must name at least one collective");
  }
  return out;
}

int cmd_collectives() {
  util::TablePrinter table({"collective", "algorithms", "P2-favoring"});
  for (coll::Collective c : coll::all_collectives()) {
    std::string algs;
    std::string p2;
    for (coll::Algorithm a : coll::algorithms_for(c)) {
      const auto& info = coll::algorithm_info(a);
      algs += (algs.empty() ? "" : ", ") + std::string(info.name);
      p2 += (p2.empty() ? "" : ", ") + std::string(info.p2_favoring ? "yes" : "no");
    }
    table.add_row({coll::collective_name(c), algs, p2});
  }
  table.print(std::cout);
  return 0;
}

int cmd_collect(const cli::Args& args) {
  const simnet::MachineConfig machine = machine_by_name(args.get("machine", "bebop"));
  const int nodes = args.get_int("nodes", 32);
  const int ppn = args.get_int("ppn", 16);
  const std::uint64_t min_msg = args.get_bytes("min-msg", 8);
  const std::uint64_t max_msg = args.get_bytes("max-msg", 1 << 20);
  const std::string out = args.require_flag("out");
  const auto collectives = collectives_from(args.get("collectives", "bcast"));
  bench::FeatureGrid grid = bench::FeatureGrid::p2(nodes, ppn, min_msg, max_msg);
  if (args.get("nonp2", "yes") == "yes") {
    util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 7)));
    const bench::FeatureGrid np2 = grid.with_nonp2_msgs(rng);
    grid.msgs.insert(grid.msgs.end(), np2.msgs.begin(), np2.msgs.end());
    std::sort(grid.msgs.begin(), grid.msgs.end());
  }
  std::size_t total = 0;
  for (coll::Collective c : collectives) {
    total += grid.points(c).size();
  }
  std::cout << "collecting " << total << " points on " << machine.name << "...\n";
  const bench::Dataset ds = bench::precollect(
      machine, grid, collectives, static_cast<std::uint64_t>(args.get_int("seed", 7)));
  ds.save(out);
  std::cout << "wrote " << out << " (" << ds.size() << " measurements, "
            << util::format_seconds(ds.total_collection_cost_s())
            << " of simulated collection)\n";
  return 0;
}

// Shared --trace-out / --metrics-out / --chrome-out / --audit-out /
// --profile-out / --prom-out / --threads handling for the training commands.
// open_telemetry must run before any instrumented work; finish_telemetry
// flushes the metrics snapshot, closes the trace and audit streams, converts
// the run's events to a chrome://tracing document, and writes the profiler
// and Prometheus expositions afterwards.
void open_telemetry(const cli::Args& args) {
  if (args.has("threads")) {
    util::set_global_threads(args.get_threads("threads"));
  }
  if (args.has("trace-out")) {
    telemetry::tracer().open_stream(args.get("trace-out"));
  }
  if (args.has("chrome-out")) {
    // The chrome export folds the in-memory ring, so it works with or
    // without a JSON-lines stream destination.
    telemetry::tracer().enable_ring(1 << 20);
  }
  if (args.has("audit-out")) {
    telemetry::audit().open_stream(args.get("audit-out"));
  }
  if (args.has("profile-out")) {
    telemetry::profiler().enable();
  }
}

void finish_telemetry(const cli::Args& args) {
  if (args.has("metrics-out")) {
    const std::string path = args.get("metrics-out");
    telemetry::publish_thread_pool_metrics();
    telemetry::metrics().dump_file(path);
    std::cout << "wrote metrics to " << path << "\n";
  }
  if (args.has("prom-out")) {
    const std::string path = args.get("prom-out");
    telemetry::publish_thread_pool_metrics();
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      throw IoError("cannot open " + path);
    }
    out << telemetry::prometheus_text(telemetry::metrics());
    std::cout << "wrote Prometheus exposition to " << path << "\n";
  }
  if (args.has("chrome-out")) {
    const std::string path = args.get("chrome-out");
    telemetry::write_chrome_trace(telemetry::tracer().ring_snapshot(), path);
    std::cout << "wrote chrome trace to " << path << " (open via chrome://tracing)\n";
  }
  if (args.has("trace-out")) {
    telemetry::tracer().close_stream();
    std::cout << "wrote trace to " << args.get("trace-out") << "\n";
  }
  if (args.has("audit-out")) {
    const std::uint64_t n = telemetry::audit().recorded();
    telemetry::audit().close_stream();
    std::cout << "wrote audit log to " << args.get("audit-out") << " (" << n
              << " decisions; inspect with `acclaim explain`)\n";
  }
  if (args.has("profile-out")) {
    const std::string path = args.get("profile-out");
    telemetry::profiler().write_folded(path);
    std::cout << "wrote folded stacks to " << path
              << " (feed to flamegraph.pl or speedscope)\n";
  }
}

int cmd_train(const cli::Args& args) {
  open_telemetry(args);
  const bench::Dataset ds = bench::Dataset::load(args.require_flag("dataset"));
  const coll::Collective c = coll::parse_collective(args.get("collective", "bcast"));
  // Recover the P2 axes from the dataset itself.
  std::vector<int> nodes;
  std::vector<int> ppns;
  std::vector<std::uint64_t> msgs;
  {
    std::set<int> ns;
    std::set<int> ps;
    std::set<std::uint64_t> ms;
    for (const bench::Scenario& s : ds.scenarios(c)) {
      if (util::is_power_of_two(static_cast<std::uint64_t>(s.nnodes)) &&
          util::is_power_of_two(s.msg_bytes)) {
        ns.insert(s.nnodes);
        ps.insert(s.ppn);
        ms.insert(s.msg_bytes);
      }
    }
    nodes.assign(ns.begin(), ns.end());
    ppns.assign(ps.begin(), ps.end());
    msgs.assign(ms.begin(), ms.end());
  }
  const core::FeatureSpace space(nodes, ppns, msgs);
  core::DatasetEnvironment env(ds);
  core::AcclaimAcquisition policy;
  core::ActiveLearnerConfig cfg;
  cfg.forest.n_trees = args.get_int("trees", 50);
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  cfg.threads = args.get_threads("threads");
  if (args.has("max-points")) {
    cfg.max_points = args.get_int("max-points", -1);
  }
  core::ActiveLearner learner(c, space, env, policy, cfg);
  const core::TrainingResult result = learner.run();
  const core::Evaluator ev(ds);
  const double slow = ev.average_slowdown(space.scenarios(c), result.model);
  std::cout << "trained " << coll::collective_name(c) << ": " << result.collected.size()
            << " points, " << util::format_seconds(result.train_time_s)
            << " simulated collection, " << (result.converged ? "converged" : "stopped")
            << ", avg slowdown " << util::fixed(slow, 3) << "\n";
  if (args.has("model")) {
    result.model.to_json().dump_file(args.get("model"));
    std::cout << "wrote model to " << args.get("model") << "\n";
  }
  if (args.has("rules")) {
    const core::RuleTable table = core::RuleGenerator().generate(result.model, space);
    core::rules_to_json({table}).dump_file(args.get("rules"));
    std::cout << "wrote rules to " << args.get("rules") << "\n";
  }
  finish_telemetry(args);
  return 0;
}

int cmd_tune_job(const cli::Args& args) {
  open_telemetry(args);
  core::JobSpec spec;
  spec.nnodes = args.get_int("nodes", 32);
  spec.ppn = args.get_int("ppn", 16);
  spec.min_msg = args.get_bytes("min-msg", 8);
  spec.max_msg = args.get_bytes("max-msg", 1 << 20);
  spec.job_seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  spec.collectives = collectives_from(args.get("collectives", "bcast,allreduce"));
  core::ActiveLearnerConfig learner;
  learner.forest.n_trees = args.get_int("trees", 50);
  learner.max_points = args.get_int("max-points", 250);
  learner.threads = args.get_threads("threads");
  const core::AcclaimPipeline pipeline(machine_by_name(args.get("machine", "theta")), learner);
  const core::PipelineResult result = pipeline.run(spec);
  util::TablePrinter table({"collective", "points", "time", "converged"});
  for (const auto& t : result.training) {
    table.add_row({coll::collective_name(t.collective), std::to_string(t.points),
                   util::format_seconds(t.train_time_s), t.converged ? "yes" : "no"});
  }
  table.print(std::cout);
  std::cout << "total training: " << util::format_seconds(result.total_training_s) << "\n";
  const std::string out = args.get("rules", "acclaim_tuning.json");
  result.config.dump_file(out);
  std::cout << "wrote " << out << "\n";
  finish_telemetry(args);
  return 0;
}

int cmd_fleet(const cli::Args& args) {
  open_telemetry(args);
  fleet::FleetConfig config;
  config.machine = machine_by_name(args.get("machine", "bebop"));
  config.stream.n_jobs = args.get_int("jobs", 100);
  config.stream.mean_interarrival_s = std::stod(args.get("mean-interarrival", "45"));
  config.stream.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  if (args.has("node-choices")) {
    config.stream.node_choices.clear();
    for (const std::string& n : cli::split_csv(args.get("node-choices"))) {
      config.stream.node_choices.push_back(std::stoi(n));
    }
  }
  if (args.has("ppn-choices")) {
    config.stream.ppn_choices.clear();
    for (const std::string& p : cli::split_csv(args.get("ppn-choices"))) {
      config.stream.ppn_choices.push_back(std::stoi(p));
    }
  }
  config.warm_start = args.get("warm", "yes") == "yes";
  config.max_transfer_distance = std::stod(args.get("max-distance", "8"));
  config.collectives_per_job = args.get_int("collectives-per-job", 2);
  config.learner.forest.n_trees = args.get_int("trees", 20);
  config.learner.max_points = args.get_int("max-points", 90);
  config.learner.threads = args.get_threads("threads");

  serve::ModelStore store;
  const fleet::FleetResult result = fleet::replay_fleet(config, store);

  util::TablePrinter table({"jobs", "warm", "points", "training", "mean speedup",
                            "mean breakeven", "makespan", "store keys"});
  const fleet::FleetTotals& t = result.totals;
  table.add_row({std::to_string(t.jobs), std::to_string(t.warm_jobs), std::to_string(t.points),
                 util::format_seconds(t.training_s), util::fixed(t.mean_speedup, 3) + "x",
                 t.amortizing_jobs > 0 ? util::format_seconds(t.mean_breakeven_s) : "never",
                 util::format_seconds(t.makespan_s), std::to_string(store.size())});
  table.print(std::cout);
  std::cout << "replay fingerprint: " << result.fingerprint << "\n";

  if (args.has("out")) {
    util::Json doc = util::Json::object();
    doc["jobs"] = t.jobs;
    doc["warm_jobs"] = t.warm_jobs;
    doc["points"] = t.points;
    doc["training_s"] = t.training_s;
    doc["mean_speedup"] = t.mean_speedup;
    doc["mean_breakeven_s"] = t.mean_breakeven_s;
    doc["amortizing_jobs"] = t.amortizing_jobs;
    doc["mean_transfer_distance"] = t.mean_transfer_distance;
    doc["makespan_s"] = t.makespan_s;
    doc["fingerprint"] = result.fingerprint;
    util::Json per_job = util::Json::array();
    for (const fleet::JobOutcome& j : result.jobs) {
      util::Json row = util::Json::object();
      row["job_id"] = j.job_id;
      row["app"] = j.app;
      row["nnodes"] = j.nnodes;
      row["ppn"] = j.ppn;
      row["arrival_s"] = j.arrival_s;
      row["training_s"] = j.training_s;
      row["points"] = j.points;
      row["warm_collectives"] = j.warm_collectives;
      row["transfer_distance"] = j.transfer_distance;
      row["speedup"] = j.speedup;
      row["breakeven_s"] = j.breakeven_s;
      per_job.as_array().push_back(std::move(row));
    }
    doc["jobs_detail"] = std::move(per_job);
    doc.dump_file(args.get("out"));
    std::cout << "wrote " << args.get("out") << "\n";
  }
  finish_telemetry(args);
  return 0;
}

int cmd_report(const cli::Args& args) {
  const bool have_trace = args.has("trace");
  const bool have_metrics = args.has("metrics");
  if (!have_trace && !have_metrics) {
    throw InvalidArgument("report needs a trace path and/or --metrics FILE.json");
  }
  if (have_trace) {
    const std::string path = args.require_flag("trace");
    const auto events = telemetry::read_trace_file(path);
    if (events.empty()) {
      std::cerr << "trace " << path << " holds no recognizable events\n";
      return 1;
    }
    const telemetry::RunReport report = telemetry::build_report(events);
    telemetry::render_report(report, std::cout, args.get_int("rows", 12));
    if (args.has("chrome-out")) {
      const std::string out = args.get("chrome-out");
      telemetry::write_chrome_trace(events, out);
      std::cout << "wrote chrome trace to " << out << " (open via chrome://tracing)\n";
    }
  }
  if (have_metrics) {
    if (have_trace) {
      std::cout << "\n";
    }
    // load_metrics_snapshot turns a missing/empty/malformed file into one
    // clear InvalidArgument line, which main() prints before exiting 1 —
    // instead of rendering a confusing empty report.
    telemetry::render_metrics_summary(telemetry::load_metrics_snapshot(args.get("metrics")),
                                      std::cout);
  }
  return 0;
}

int cmd_explain(const cli::Args& args) {
  const std::string path = args.require_flag("audit");
  const auto records = telemetry::read_audit_file(path);
  if (records.empty()) {
    std::cerr << "audit log " << path << " holds no decision records\n";
    return 1;
  }
  const telemetry::ExplainReport report = telemetry::build_explain(records);
  telemetry::render_explain(report, std::cout, args.get_int("decisions", 4),
                            args.get_int("rows", 12));
  return 0;
}

int cmd_select(const cli::Args& args) {
  const core::SelectionEngine engine =
      core::SelectionEngine::from_file(args.require_flag("rules"));
  bench::Scenario s;
  s.collective = coll::parse_collective(args.require_flag("collective"));
  s.nnodes = args.get_int("nodes", 16);
  s.ppn = args.get_int("ppn", 16);
  s.msg_bytes = args.get_bytes("msg", 1024);
  const coll::Algorithm tuned = engine.select(s);
  const coll::Algorithm fallback = core::mpich_default_selection(s);
  std::cout << s.to_string() << "\n  tuned rules:      " << coll::algorithm_info(tuned).name
            << "\n  MPICH default:    " << coll::algorithm_info(fallback).name << "\n";
  return 0;
}

int cmd_inspect(const cli::Args& args) {
  const bench::Dataset ds = bench::Dataset::load(args.require_flag("dataset"));
  const core::Evaluator ev(ds);
  util::TablePrinter table({"collective", "scenarios", "points", "collection time",
                            "heuristic slowdown"});
  for (coll::Collective c : coll::all_collectives()) {
    const auto scenarios = ds.scenarios(c);
    if (scenarios.empty()) {
      continue;
    }
    double cost = 0.0;
    for (const auto& p : ds.points(c)) {
      cost += ds.at(p).collect_cost_s;
    }
    table.add_row({coll::collective_name(c), std::to_string(scenarios.size()),
                   std::to_string(ds.points(c).size()), util::format_seconds(cost),
                   util::fixed(ev.average_slowdown(scenarios, core::mpich_default_selection),
                               3)});
  }
  table.print(std::cout);
  return 0;
}

// Loads a model JSON file and publishes it into `core` under the scale/
// topology requested on the command line (nodes/ppn 0 = wildcard key that
// serves every scale).
std::uint64_t publish_model_file(serve::ServeCore& core, const std::string& path, int nodes,
                                 int ppn, const std::string& topology) {
  core::CollectiveModel model = core::CollectiveModel::from_json(util::Json::parse_file(path));
  const serve::ModelKey key{model.collective(), serve::checked_comm_size(nodes, ppn), topology};
  const std::uint64_t version = core.publish(key, std::move(model));
  std::cerr << "published " << path << " as " << key.to_string() << " (v" << version << ")\n";
  return version;
}

int cmd_serve(const cli::Args& args) {
  serve::ServeConfig cfg;
  cfg.cache_capacity = args.get_count("cache-capacity", cfg.cache_capacity);
  open_telemetry(args);
  serve::ServeCore core(cfg);
  const int nodes = args.get_int("nodes", 0);
  const int ppn = args.get_int("ppn", 0);
  const std::string topology = args.get("topology", "default");
  for (const std::string& path : cli::split_csv(args.get("model", ""))) {
    publish_model_file(core, path, nodes, ppn, topology);
  }
  serve::Daemon daemon(core);
  std::uint64_t handled = 0;
  if (args.has("socket")) {
    handled = daemon.serve_unix_socket(args.get("socket"));
  } else {
    // Responses go to stdout, so keep chatter on stderr.
    handled = daemon.serve_stream(std::cin, std::cout);
  }
  std::cerr << "acclaimd served " << handled << " requests\n";
  finish_telemetry(args);
  return 0;
}

int cmd_query(const cli::Args& args) {
  const std::string op = args.get("op", "query");
  auto scenario_from_flags = [&args]() {
    bench::Scenario s;
    s.collective = coll::parse_collective(args.require_flag("collective"));
    s.nnodes = args.get_int("nodes", 16);
    s.ppn = args.get_int("ppn", 16);
    s.msg_bytes = args.get_bytes("msg", 1024);
    return s;
  };

  if (args.has("socket")) {
    serve::Request req;
    if (op == "query") {
      req.op = serve::Op::Query;
      req.queries.push_back(scenario_from_flags());
      req.topology = args.get("topology", "default");
    } else if (op == "ping") {
      req.op = serve::Op::Ping;
    } else if (op == "stats") {
      req.op = serve::Op::Stats;
    } else if (op == "shutdown") {
      req.op = serve::Op::Shutdown;
    } else if (op == "publish") {
      req.op = serve::Op::Publish;
      req.path = args.require_flag("path");
      req.nodes = args.get_int("nodes", 0);
      req.ppn = args.get_int("ppn", 0);
      req.topology = args.get("topology", "default");
    } else {
      throw InvalidArgument("unknown --op '" + op +
                            "' (query | ping | stats | shutdown | publish)");
    }
    std::cout << serve::unix_socket_request(args.get("socket"),
                                            serve::request_to_json(req).dump())
              << "\n";
    return 0;
  }

  // Direct mode: answer from the model file in-process, emitting the same
  // response shape as the daemon. The CI smoke test diffs this against the
  // daemon's answer to prove serving is bitwise-faithful to the model.
  if (op != "query") {
    throw InvalidArgument("direct mode (--model) supports only --op query");
  }
  const core::CollectiveModel model =
      core::CollectiveModel::from_json(util::Json::parse_file(args.require_flag("model")));
  const bench::Scenario s = scenario_from_flags();
  if (model.collective() != s.collective) {
    throw InvalidArgument(std::string("model is for ") +
                          coll::collective_name(model.collective()) + ", not " +
                          coll::collective_name(s.collective));
  }
  util::Json doc = util::Json::object();
  doc["ok"] = true;
  doc["op"] = "query";
  doc["algorithm"] = coll::algorithm_info(model.select(s)).name;
  doc["cached"] = false;
  doc["version"] = 0;
  std::cout << doc.dump() << "\n";
  return 0;
}

int cmd_breakeven(const cli::Args& args) {
  const double training_s = args.get_double("training", 300.0);
  if (args.has("speedup")) {
    const double s = args.get_double("speedup", 1.01);
    std::cout << "training " << util::format_seconds(training_s) << " at " << s
              << "x app speedup -> break-even runtime "
              << util::format_seconds(platform::breakeven_runtime_s(training_s, s)) << "\n";
    return 0;
  }
  util::TablePrinter table({"speedup", "break-even runtime"});
  for (double s : {1.005, 1.01, 1.02, 1.05, 1.10, 1.20}) {
    table.add_row({util::fixed(s, 3) + "x",
                   util::format_seconds(platform::breakeven_runtime_s(training_s, s))});
  }
  table.print(std::cout);
  return 0;
}

void usage() {
  std::cout <<
      R"(acclaim — ML-based MPI collective autotuning (CLUSTER'22 reproduction)

usage: acclaim <command> [--flag value ...]

commands:
  collectives   list supported collectives and algorithms
  collect       benchmark a feature grid into a dataset CSV
                  --out FILE [--machine bebop|theta|tiny] [--nodes N] [--ppn P]
                  [--collectives a,b] [--min-msg S] [--max-msg S] [--nonp2 yes|no] [--seed K]
  train         active-learning training from a dataset
                  --dataset FILE [--collective C] [--model OUT] [--rules OUT]
                  [--trees N] [--max-points N] [--seed K] [--threads N]
                  [--trace-out FILE.jsonl] [--metrics-out FILE.json]
                  [--chrome-out FILE.json]   (chrome://tracing timeline)
                  [--audit-out FILE.jsonl]   (decision flight recorder)
                  [--profile-out FILE.folded] [--prom-out FILE.prom]
  tune-job      full pipeline on a simulated job (train + rule file)
                  [--machine theta] [--nodes N] [--ppn P] [--collectives a,b]
                  [--rules OUT] [--max-points N] [--seed K] [--threads N]
                  [--trace-out FILE.jsonl] [--metrics-out FILE.json]
                  [--chrome-out FILE.json]   (chrome://tracing timeline)
                  [--audit-out FILE.jsonl]   (decision flight recorder)
                  [--profile-out FILE.folded] [--prom-out FILE.prom]
  explain       replay an audit log into per-decision "why" reports
                  AUDIT.jsonl | --audit FILE [--decisions N] [--rows N]
  report        render a run report from a trace and/or metrics snapshot
                  TRACE.jsonl | --trace FILE [--rows N]
                  [--metrics FILE.json]   (histogram p50/p95/p99 summaries)
                  [--chrome-out FILE.json]   (convert the trace for chrome://tracing)
  select        resolve a scenario through a rule file
                  --rules FILE --collective C [--nodes N] [--ppn P] [--msg SIZE]
  inspect       summarize a dataset CSV
                  --dataset FILE
  serve         run the acclaimd model-serving daemon (NDJSON protocol)
                  [--model FILE[,FILE...]] [--socket PATH]  (default: stdin/stdout)
                  [--nodes N --ppn P] [--topology T]        (publish key; 0 = any scale)
                  [--cache-capacity N]
                  [--threads N] [--metrics-out FILE.json] [--prom-out FILE.prom]
  query         ask a daemon (--socket) or a model file directly (--model)
                  --socket PATH | --model FILE
                  --collective C [--nodes N] [--ppn P] [--msg SIZE] [--topology T]
                  [--op query|ping|stats|shutdown|publish] [--path MODEL.json]
  fleet         replay a job-arrival stream with warm-start model transfer
                  [--machine bebop] [--jobs N] [--mean-interarrival S] [--seed K]
                  [--node-choices 4,8,16] [--ppn-choices 2,4,8] [--warm yes|no]
                  [--max-distance D] [--collectives-per-job K] [--trees N]
                  [--max-points N] [--out SUMMARY.json] [--threads N]
                  [--trace-out FILE.jsonl] [--metrics-out FILE.json]
  breakeven     training-cost amortization (Fig. 15)
                  [--training SECONDS] [--speedup S]
)";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "collectives") {
      return cmd_collectives();
    }
    if (cmd == "collect") {
      return cmd_collect(cli::Args(argc - 2, argv + 2,
                                   {"machine", "nodes", "ppn", "collectives", "min-msg",
                                    "max-msg", "out", "nonp2", "seed"}));
    }
    if (cmd == "train") {
      return cmd_train(cli::Args(argc - 2, argv + 2,
                                 {"dataset", "collective", "model", "rules", "trees",
                                  "max-points", "seed", "threads", "trace-out",
                                  "metrics-out", "chrome-out", "audit-out", "profile-out",
                                  "prom-out"}));
    }
    if (cmd == "tune-job") {
      return cmd_tune_job(cli::Args(argc - 2, argv + 2,
                                    {"machine", "nodes", "ppn", "collectives", "min-msg",
                                     "max-msg", "rules", "trees", "max-points", "seed",
                                     "threads", "trace-out", "metrics-out", "chrome-out",
                                     "audit-out", "profile-out", "prom-out"}));
    }
    if (cmd == "explain") {
      // Accept the audit path positionally (`acclaim explain run.jsonl`) or
      // via --audit, mirroring `report`.
      std::vector<char*> rest(argv + 2, argv + argc);
      std::string positional;
      if (!rest.empty() && rest.front()[0] != '-') {
        positional = rest.front();
        rest.erase(rest.begin());
      }
      cli::Args args(static_cast<int>(rest.size()), rest.data(),
                     {"audit", "decisions", "rows"});
      if (!positional.empty() && args.has("audit")) {
        throw InvalidArgument(
            "explain takes either a positional audit path or --audit, not both");
      }
      if (!positional.empty()) {
        std::vector<char*> fwd;
        std::string audit_flag = "--audit";
        fwd.push_back(audit_flag.data());
        fwd.push_back(positional.data());
        for (char* a : rest) {
          fwd.push_back(a);
        }
        args = cli::Args(static_cast<int>(fwd.size()), fwd.data(),
                         {"audit", "decisions", "rows"});
      }
      return cmd_explain(args);
    }
    if (cmd == "report") {
      // Accept the trace path positionally (`acclaim report t.jsonl`) or
      // via --trace; remaining arguments stay ordinary flags.
      std::vector<char*> rest(argv + 2, argv + argc);
      std::string positional;
      if (!rest.empty() && rest.front()[0] != '-') {
        positional = rest.front();
        rest.erase(rest.begin());
      }
      cli::Args args(static_cast<int>(rest.size()), rest.data(), {"trace", "rows", "metrics", "chrome-out"});
      if (!positional.empty() && args.has("trace")) {
        throw InvalidArgument("report takes either a positional trace path or --trace, not both");
      }
      if (!positional.empty()) {
        std::vector<char*> fwd;
        std::string trace_flag = "--trace";
        fwd.push_back(trace_flag.data());
        fwd.push_back(positional.data());
        for (char* a : rest) {
          fwd.push_back(a);
        }
        args = cli::Args(static_cast<int>(fwd.size()), fwd.data(), {"trace", "rows", "metrics", "chrome-out"});
      }
      return cmd_report(args);
    }
    if (cmd == "select") {
      return cmd_select(
          cli::Args(argc - 2, argv + 2, {"rules", "collective", "nodes", "ppn", "msg"}));
    }
    if (cmd == "inspect") {
      return cmd_inspect(cli::Args(argc - 2, argv + 2, {"dataset"}));
    }
    if (cmd == "serve") {
      return cmd_serve(cli::Args(argc - 2, argv + 2,
                                 {"model", "socket", "nodes", "ppn", "topology",
                                  "cache-capacity", "threads", "trace-out", "metrics-out",
                                  "chrome-out", "audit-out", "profile-out", "prom-out"}));
    }
    if (cmd == "query") {
      return cmd_query(cli::Args(argc - 2, argv + 2,
                                 {"socket", "model", "op", "collective", "nodes", "ppn",
                                  "msg", "topology", "path"}));
    }
    if (cmd == "fleet") {
      return cmd_fleet(cli::Args(argc - 2, argv + 2,
                                 {"machine", "jobs", "mean-interarrival", "seed",
                                  "node-choices", "ppn-choices", "warm", "max-distance",
                                  "collectives-per-job", "trees", "max-points", "out",
                                  "threads", "trace-out", "metrics-out", "chrome-out",
                                  "audit-out", "profile-out", "prom-out"}));
    }
    if (cmd == "breakeven") {
      return cmd_breakeven(cli::Args(argc - 2, argv + 2, {"training", "speedup"}));
    }
    if (cmd == "--help" || cmd == "help" || cmd == "-h") {
      usage();
      return 0;
    }
    std::cerr << "unknown command '" << cmd << "'\n\n";
    usage();
    return 2;
  } catch (const acclaim::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
