// perfbench: the end-to-end benchmark binary.
//
//   perfbench --workload tune|fleet|serve --seed N --seconds S --trace 0|1
//             [--span-out FILE] [--commit SHA] [--tiny] [--corrupt-response K]
//
// Runs one workload in this process with the compute pool at one thread,
// checks its outputs, and prints one JSON result as the last line of
// standard output: the end-to-end metrics with --trace 0, the per-layer
// metrics of a separate traced run with --trace 1. See README.md.
#include <cstdlib>
#include <iostream>
#include <set>
#include <string>
#include <thread>

#include "harness.hpp"
#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Result;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Per-layer metrics; a layer a workload does not run reports 0.
constexpr MetricSpec kLayers[] = {
    {"ml.fit_s", "s"},          {"ml.fits", "count"},          {"ml.sweep_s", "s"},
    {"ml.sweeps", "count"},     {"ml.rows", "count"},          {"core.iterations", "count"},
    {"core.candidates", "count"}, {"core.rulegen_s", "s"},     {"core.self_s", "s"},
    {"simnet.measure_s", "s"},  {"simnet.schedule_s", "s"},    {"simnet.runs", "count"},
    {"fleet.self_s", "s"},      {"fleet.warm_ratio", "ratio"}, {"fleet.points", "count"},
    {"serve.parse_s", "s"},     {"serve.select_s", "s"},       {"serve.encode_s", "s"},
    {"serve.publish_s", "s"},   {"serve.hit_ratio", "ratio"},  {"serve.evictions", "count"},
    {"serve.miss_rows", "count"}, {"serve.query_p50_us", "us"}, {"serve.query_p99_us", "us"},
    {"serve.batch_p50_us", "us"}, {"quality.regret_pct", "%"},
    {"quality.sim_training_s", "sim_s"}, {"trace_overhead_pct", "%"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload tune|fleet|serve --seed N --seconds S --trace 0|1"
               " [--span-out FILE] [--commit SHA] [--tiny] [--corrupt-response K]\n";
  std::exit(2);
}

long long to_int(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const long long n = std::strtoll(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0') {
    usage(flag + " expects an integer, got '" + v + "'");
  }
  return n;
}

acclaim::util::Json metrics_json(const std::vector<Metric>& metrics) {
  acclaim::util::Json out = acclaim::util::Json::object();
  for (const Metric& m : metrics) {
    acclaim::util::Json v = acclaim::util::Json::object();
    v["value"] = m.value;
    v["unit"] = m.unit;
    out[m.name] = std::move(v);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string commit = "unknown";
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      opts.tiny = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage(flag + " needs a value");
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = static_cast<std::uint64_t>(to_int(flag, value));
    } else if (flag == "--seconds") {
      opts.seconds = static_cast<double>(to_int(flag, value));
    } else if (flag == "--trace") {
      trace = static_cast<int>(to_int(flag, value));
    } else if (flag == "--span-out") {
      opts.span_out = value;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--corrupt-response") {
      opts.corrupt_response = static_cast<long>(to_int(flag, value));
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (trace != 0 && trace != 1) {
    usage("--trace must be 0 or 1");
  }
  if (opts.seconds < 1) {
    usage("--seconds must be at least 1");
  }
  opts.trace = trace == 1;
  if (opts.span_out.empty()) {
    opts.span_out = "perfbench-spans-" + opts.workload + ".jsonl";
  }

  acclaim::util::set_global_threads(1);
  std::cout << "meta: workload=" << opts.workload << " seed=" << opts.seed
            << " seconds=" << opts.seconds << " trace=" << trace
            << " nproc=" << std::thread::hardware_concurrency()
            << " threads=" << acclaim::util::global_threads()
            << " build=" << PERFBENCH_BUILD_TYPE << " compiler=" << PERFBENCH_COMPILER
            << " commit=" << commit << "\n";

  Result r;
  try {
    if (opts.workload == "tune") {
      r = perfbench::run_tune(opts);
    } else if (opts.workload == "fleet") {
      r = perfbench::run_fleet(opts);
    } else if (opts.workload == "serve") {
      r = perfbench::run_serve(opts);
    } else {
      usage("unknown workload '" + opts.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opts.workload << " aborted: " << e.what() << "\n";
    return 1;
  }

  std::cout << "fingerprint: " << r.fingerprint << "\n";
  if (opts.trace) {
    std::cout << "traced fingerprint: " << r.traced_fingerprint << "\n";
    if (r.traced_fingerprint != r.fingerprint) {
      r.fail("the traced run's output differs from the timed run's");
    }
    std::set<std::string> have;
    for (const Metric& m : r.layers) {
      have.insert(m.name);
    }
    const std::set<std::string> absent(r.absent.begin(), r.absent.end());
    for (const MetricSpec& spec : kLayers) {
      if (!have.contains(spec.name) && !absent.contains(spec.name)) {
        r.add_layer(spec.name, 0.0, spec.unit);
      }
    }
    for (const std::string& name : r.absent) {
      std::cout << "absent: " << name << " (its registry instrument does not exist)\n";
    }
  }
  for (const Metric& m : r.end_to_end) {
    std::cout << "metric " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  for (const Metric& m : r.layers) {
    std::cout << "layer " << m.name << " = " << m.value << " " << m.unit << "\n";
  }
  std::cout << "operations: attempted " << r.attempted << ", failed " << r.failed << "\n";

  acclaim::util::Json out = acclaim::util::Json::object();
  out["correct"] = r.correct && r.failed == 0;
  out["attempted"] = static_cast<double>(r.attempted);
  out["failed"] = static_cast<double>(r.failed);
  out["metrics"] = metrics_json(opts.trace ? r.layers : r.end_to_end);
  std::cout << out.dump() << std::endl;
  return 0;
}
