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
//   report     TRACE.jsonl              render a run report from a telemetry trace,
//              and convert a run's trace and metrics for chrome://tracing and
//              Prometheus
//   explain    AUDIT.jsonl              replay a decision audit log (--audit-out)
//   serve, query, fleet                 acclaimd daemon, its client, fleet replay
//   breakeven  --training SECONDS --speedup S
//              minimum application runtime that amortizes training (Fig. 15)
//
// Every subcommand parses its flags with cli::Args; train, tune-job, serve
// and fleet also take the five run flags (cli_args.hpp).
#include <algorithm>
#include <fstream>
#include <iostream>
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
#include "telemetry/report.hpp"
#include "telemetry/trace.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
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

int cmd_collectives(const cli::Args& /*takes no flags*/) {
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
  if (args.get_yes_no("nonp2", true)) {
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

int cmd_train(const cli::Args& args) {
  cli::open_run_outputs(args);
  const bench::Dataset ds = bench::Dataset::load(args.require_flag("dataset"));
  const coll::Collective c = coll::parse_collective(args.get("collective", "bcast"));
  // Recover the P2 axes from the dataset itself (each then has at most 64
  // values, as the candidate grid requires).
  std::vector<int> nodes;
  std::vector<int> ppns;
  std::vector<std::uint64_t> msgs;
  {
    std::set<int> ns;
    std::set<int> ps;
    std::set<std::uint64_t> ms;
    for (const bench::Scenario& s : ds.scenarios(c)) {
      if (util::is_power_of_two(static_cast<std::uint64_t>(s.nnodes)) &&
          util::is_power_of_two(static_cast<std::uint64_t>(s.ppn)) &&
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
  cfg.forest.n_trees = static_cast<int>(args.get_count("trees", 50));
  cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  if (args.has("max-points")) {  // without it, the whole pool
    cfg.max_points = static_cast<int>(args.get_count("max-points", 1));
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
  cli::finish_run_outputs(args);
  return 0;
}

int cmd_tune_job(const cli::Args& args) {
  cli::open_run_outputs(args);
  core::JobSpec spec;
  spec.nnodes = args.get_int("nodes", 32);
  spec.ppn = args.get_int("ppn", 16);
  spec.min_msg = args.get_bytes("min-msg", 8);
  spec.max_msg = args.get_bytes("max-msg", 1 << 20);
  spec.job_seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  spec.collectives = collectives_from(args.get("collectives", "bcast,allreduce"));
  core::ActiveLearnerConfig learner;
  learner.forest.n_trees = static_cast<int>(args.get_count("trees", 50));
  learner.max_points = static_cast<int>(args.get_count("max-points", 250));
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
  cli::finish_run_outputs(args);
  return 0;
}

int cmd_fleet(const cli::Args& args) {
  fleet::FleetConfig config;
  config.machine = machine_by_name(args.get("machine", "bebop"));
  config.stream.n_jobs = static_cast<int>(args.get_count("jobs", 100));
  config.stream.mean_interarrival_s = args.get_double("mean-interarrival", 45.0);
  config.stream.seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  config.stream.node_choices = args.get_counts("node-choices", config.stream.node_choices);
  config.stream.ppn_choices = args.get_counts("ppn-choices", config.stream.ppn_choices);
  config.warm_start = args.get_yes_no("warm", true);
  config.max_transfer_distance = args.get_double("max-distance", 8.0);
  config.collectives_per_job = static_cast<int>(args.get_count("collectives-per-job", 2));
  config.learner.forest.n_trees = static_cast<int>(args.get_count("trees", 20));
  config.learner.max_points = static_cast<int>(args.get_count("max-points", 90));
  cli::open_run_outputs(args);

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
  cli::finish_run_outputs(args);
  return 0;
}

// The one converter of a finished run's files: renders the trace and/or the
// metrics snapshot, and writes the chrome://tracing and Prometheus forms of
// them. A run command writes only the JSON-lines trace and the snapshot.
int cmd_report(const cli::Args& args) {
  const bool have_trace = args.has("trace");
  const bool have_metrics = args.has("metrics");
  if (!have_trace && !have_metrics) {
    throw InvalidArgument("report needs a trace path and/or --metrics FILE.json");
  }
  if (args.has("chrome-out") && !have_trace) {
    throw InvalidArgument("--chrome-out converts a trace: give its path or --trace");
  }
  if (args.has("prom-out") && !have_metrics) {
    throw InvalidArgument("--prom-out converts a metrics snapshot: give --metrics FILE.json");
  }
  if (have_trace) {
    const std::string path = args.require_flag("trace");
    const auto events = telemetry::read_trace_file(path);
    if (events.empty()) {
      std::cerr << "trace " << path << " holds no recognizable events\n";
      return 1;
    }
    const telemetry::RunReport report = telemetry::build_report(events);
    telemetry::render_report(report, std::cout, static_cast<int>(args.get_count("rows", 12)));
    if (args.has("chrome-out")) {
      telemetry::write_chrome_trace(events, args.get("chrome-out"));
      std::cerr << "wrote chrome trace to " << args.get("chrome-out")
                << " (open via chrome://tracing)\n";
    }
  }
  if (have_metrics) {
    if (have_trace) {
      std::cout << "\n";
    }
    // load_metrics_snapshot turns a missing/empty/malformed file into one
    // clear InvalidArgument line, which main() prints before exiting 1 —
    // instead of rendering a confusing empty report.
    const util::Json snapshot = telemetry::load_metrics_snapshot(args.get("metrics"));
    telemetry::render_metrics_summary(snapshot, std::cout);
    if (args.has("prom-out")) {
      const std::string out = args.get("prom-out");
      std::ofstream file(out, std::ios::trunc);
      if (!(file << telemetry::prometheus_text(snapshot))) {
        throw IoError("cannot write " + out);
      }
      std::cerr << "wrote Prometheus exposition to " << out << "\n";
    }
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
  telemetry::render_explain(report, std::cout, static_cast<int>(args.get_count("decisions", 4)),
                            static_cast<int>(args.get_count("rows", 12)));
  return 0;
}

int cmd_select(const cli::Args& args) {
  const core::SelectionEngine engine =
      core::SelectionEngine::from_file(args.require_flag("rules"));
  bench::Scenario s;
  s.collective = coll::parse_collective(args.require_flag("collective"));
  s.nnodes = static_cast<int>(args.get_count("nodes", 16));
  s.ppn = static_cast<int>(args.get_count("ppn", 16));
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
  serve::ServeCore core(cfg);
  // Checks --model-dir before any output is opened or a line is read.
  serve::Daemon daemon(core, args.get("model-dir", ""));
  cli::open_run_outputs(args);
  const int nodes = args.get_int("nodes", 0);
  const int ppn = args.get_int("ppn", 0);
  const std::string topology = args.get("topology", "default");
  for (const std::string& path : cli::split_csv(args.get("model", ""))) {
    publish_model_file(core, path, nodes, ppn, topology);
  }
  std::uint64_t handled = 0;
  if (args.has("socket")) {
    handled = daemon.serve_unix_socket(args.get("socket"));
  } else {
    // Responses go to stdout, so keep chatter on stderr.
    handled = daemon.serve_stream(std::cin, std::cout);
  }
  std::cerr << "acclaimd served " << handled << " requests\n";
  cli::finish_run_outputs(args);
  return 0;
}

int cmd_query(const cli::Args& args) {
  const std::string op = args.get("op", "query");
  auto scenario_from_flags = [&args]() {
    bench::Scenario s;
    s.collective = coll::parse_collective(args.require_flag("collective"));
    s.nnodes = static_cast<int>(args.get_count("nodes", 16));
    s.ppn = static_cast<int>(args.get_count("ppn", 16));
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
    // Validated before anything is streamed: a failing run prints no stdout.
    const double runtime_s = platform::breakeven_runtime_s(training_s, s);
    std::cout << "training " << util::format_seconds(training_s) << " at " << s
              << "x app speedup -> break-even runtime " << util::format_seconds(runtime_s)
              << "\n";
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
  train         active-learning training from a dataset            (+ run flags)
                  --dataset FILE [--collective C] [--model OUT] [--rules OUT]
                  [--trees N] [--max-points N] [--seed K]
  tune-job      full pipeline on a simulated job (train + rule file) (+ run flags)
                  [--machine theta] [--nodes N] [--ppn P] [--collectives a,b]
                  [--rules OUT] [--max-points N] [--seed K]
  explain       replay an audit log into per-decision "why" reports
                  AUDIT.jsonl | --audit FILE [--decisions N] [--rows N]
  report        render and convert a finished run's trace and/or metrics snapshot
                  TRACE.jsonl | --trace FILE [--rows N]
                  [--metrics FILE.json]      (histogram p50/p95/p99 summaries)
                  [--chrome-out FILE.json]   (the trace for chrome://tracing)
                  [--prom-out FILE.prom]     (the snapshot as Prometheus text)
  select        resolve a scenario through a rule file
                  --rules FILE --collective C [--nodes N] [--ppn P] [--msg SIZE]
  inspect       summarize a dataset CSV
                  --dataset FILE
  serve         run the acclaimd model-serving daemon (NDJSON protocol) (+ run flags)
                  [--model FILE[,FILE...]] [--socket PATH]  (default: stdin/stdout)
                  [--nodes N --ppn P] [--topology T]        (publish key; 0 = any scale)
                  [--cache-capacity N]
                  [--model-dir DIR]     (publish requests read only files under DIR;
                                         without it, every publish request is refused)
  query         ask a daemon (--socket) or a model file directly (--model)
                  --socket PATH | --model FILE
                  --collective C [--nodes N] [--ppn P] [--msg SIZE] [--topology T]
                  [--op query|ping|stats|shutdown|publish]
                  [--path MODEL.json]   (publish: a file under the daemon's --model-dir,
                                         named relative to it)
  fleet         replay a job-arrival stream with warm-start model transfer (+ run flags)
                  [--machine bebop] [--jobs N] [--mean-interarrival S] [--seed K]
                  [--node-choices 4,8,16] [--ppn-choices 2,4,8] [--warm yes|no]
                  [--max-distance D] [--collectives-per-job K] [--trees N]
                  [--max-points N] [--out SUMMARY.json]
  breakeven     training-cost amortization (Fig. 15)
                  [--training SECONDS] [--speedup S]

run flags (train, tune-job, serve, fleet; one note per written file on stderr):
  [--threads N]                 size of the compute pool
  [--trace-out FILE.jsonl]      telemetry event stream (acclaim report)
  [--metrics-out FILE.json]     metrics snapshot at exit (acclaim report --metrics)
  [--audit-out FILE.jsonl]      decision flight recorder (acclaim explain)
  [--profile-out FILE.folded]   folded stacks for flamegraph.pl or speedscope
)";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  // The subcommand's flags; `positional` names the flag a leading path
  // stands for (`acclaim report t.jsonl`).
  const auto flags = [&](const std::vector<std::string>& known,
                         const std::string& positional = {}) {
    return cli::Args(argc - 2, argv + 2, known, {}, positional);
  };
  try {
    if (cmd == "collectives") {
      return cmd_collectives(flags({}));
    }
    if (cmd == "collect") {
      return cmd_collect(flags({"machine", "nodes", "ppn", "collectives", "min-msg", "max-msg",
                                "out", "nonp2", "seed"}));
    }
    if (cmd == "train") {
      return cmd_train(flags(cli::with_run_flags(
          {"dataset", "collective", "model", "rules", "trees", "max-points", "seed"})));
    }
    if (cmd == "tune-job") {
      return cmd_tune_job(flags(cli::with_run_flags({"machine", "nodes", "ppn", "collectives",
                                                     "min-msg", "max-msg", "rules", "trees",
                                                     "max-points", "seed"})));
    }
    if (cmd == "explain") {
      return cmd_explain(flags({"audit", "decisions", "rows"}, "audit"));
    }
    if (cmd == "report") {
      return cmd_report(flags({"trace", "rows", "metrics", "chrome-out", "prom-out"}, "trace"));
    }
    if (cmd == "select") {
      return cmd_select(flags({"rules", "collective", "nodes", "ppn", "msg"}));
    }
    if (cmd == "inspect") {
      return cmd_inspect(flags({"dataset"}));
    }
    if (cmd == "serve") {
      return cmd_serve(flags(cli::with_run_flags(
          {"model", "socket", "nodes", "ppn", "topology", "cache-capacity", "model-dir"})));
    }
    if (cmd == "query") {
      return cmd_query(flags({"socket", "model", "op", "collective", "nodes", "ppn", "msg",
                              "topology", "path"}));
    }
    if (cmd == "fleet") {
      return cmd_fleet(flags(cli::with_run_flags(
          {"machine", "jobs", "mean-interarrival", "seed", "node-choices", "ppn-choices", "warm",
           "max-distance", "collectives-per-job", "trees", "max-points", "out"})));
    }
    if (cmd == "breakeven") {
      return cmd_breakeven(flags({"training", "speedup"}));
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
