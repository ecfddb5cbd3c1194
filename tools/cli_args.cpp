#include "cli_args.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <optional>

#include "telemetry/audit.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/trace.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"

namespace acclaim::cli {

namespace {

/// One-line usage error for a flag whose value failed to convert. Always
/// names the flag and the offending value so `acclaim train --threads abc`
/// dies with a message the user can act on instead of an uncaught
/// std::invalid_argument abort.
[[noreturn]] void bad_value(const std::string& flag, const std::string& value,
                            const std::string& expected) {
  throw InvalidArgument("flag '--" + flag + "' expects " + expected + ", got '" + value +
                        "'");
}

/// Strict base-10 integer: the whole token must convert (trailing garbage
/// like "4x" is rejected, unlike std::stoi) and the result must fit int.
std::optional<int> strict_int(const std::string& value) {
  const char* begin = value.c_str();
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(begin, &end, 10);
  if (end == begin || *end != '\0' || errno == ERANGE || n < std::numeric_limits<int>::min() ||
      n > std::numeric_limits<int>::max()) {
    return std::nullopt;
  }
  return static_cast<int>(n);
}

bool contains(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

}  // namespace

Args::Args(int argc, char** argv, const std::vector<std::string>& flags,
           const std::vector<std::string>& switches, const std::string& positional) {
  const bool leading = !positional.empty() && argc > 0 && argv[0][0] != '-';
  if (leading) {
    values_[positional] = argv[0];
  }
  for (int i = leading ? 1 : 0; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      throw InvalidArgument("expected a --flag, got '" + token + "'");
    }
    const std::string name = token.substr(2);
    if (contains(switches, name)) {
      values_.try_emplace(name);
      continue;
    }
    if (!contains(flags, name)) {
      throw InvalidArgument("unknown flag '--" + name + "'");
    }
    if (i + 1 >= argc) {
      throw InvalidArgument("flag '--" + name + "' is missing its value");
    }
    if (leading && name == positional) {
      throw InvalidArgument("give the " + name + " path either first or as '--" + name +
                            "', not both");
    }
    values_[name] = argv[++i];
  }
}

bool Args::has(const std::string& flag) const { return values_.count(flag) > 0; }

std::string Args::get(const std::string& flag, const std::string& fallback) const {
  const auto it = values_.find(flag);
  return it == values_.end() ? fallback : it->second;
}

std::string Args::require_flag(const std::string& flag) const {
  const auto it = values_.find(flag);
  if (it == values_.end()) {
    throw InvalidArgument("required flag '--" + flag + "' is missing");
  }
  return it->second;
}

int Args::get_int(const std::string& flag, int fallback) const {
  if (!has(flag)) {
    return fallback;
  }
  const std::string& value = values_.at(flag);
  const std::optional<int> n = strict_int(value);
  if (!n) {
    bad_value(flag, value, "an integer");
  }
  return *n;
}

std::size_t Args::get_count(const std::string& flag, std::size_t fallback) const {
  if (!has(flag)) {
    return fallback;
  }
  const std::string& value = values_.at(flag);
  const std::optional<int> n = strict_int(value);
  if (!n || *n < 1) {
    bad_value(flag, value, "an integer >= 1");
  }
  return static_cast<std::size_t>(*n);
}

std::vector<int> Args::get_counts(const std::string& flag, std::vector<int> fallback) const {
  if (!has(flag)) {
    return fallback;
  }
  const std::string& value = values_.at(flag);
  std::vector<int> out;
  for (const std::string& piece : split_csv(value)) {
    const std::optional<int> n = strict_int(piece);
    if (!n || *n < 1) {
      out.clear();
      break;
    }
    out.push_back(*n);
  }
  if (out.empty()) {
    bad_value(flag, value, "a comma-separated list of integers >= 1");
  }
  return out;
}

int Args::get_threads(const std::string& flag) const {
  if (!has(flag)) {
    return 0;
  }
  const std::string& value = values_.at(flag);
  const std::optional<int> n = util::parse_thread_count(value);
  if (!n) {
    bad_value(flag, value, "an integer in [1, " + std::to_string(util::kMaxThreads) + "]");
  }
  return *n;
}

double Args::get_double(const std::string& flag, double fallback) const {
  if (!has(flag)) {
    return fallback;
  }
  const std::string& value = values_.at(flag);
  const char* begin = value.c_str();
  char* end = nullptr;
  errno = 0;
  const double d = std::strtod(begin, &end);
  if (end == begin || *end != '\0' || errno == ERANGE || !std::isfinite(d)) {
    bad_value(flag, value, "a finite number");
  }
  return d;
}

std::uint64_t Args::get_bytes(const std::string& flag, std::uint64_t fallback) const {
  if (!has(flag)) {
    return fallback;
  }
  const std::string& value = values_.at(flag);
  try {
    return util::parse_bytes(value);
  } catch (const ParseError& e) {
    throw InvalidArgument("flag '--" + flag + "' expects a byte size (e.g. 64, 4K, 1M), got '" +
                          value + "': " + e.what());
  }
}

bool Args::get_yes_no(const std::string& flag, bool fallback) const {
  if (!has(flag)) {
    return fallback;
  }
  const std::string& value = values_.at(flag);
  if (value != "yes" && value != "no") {
    bad_value(flag, value, "yes or no");
  }
  return value == "yes";
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  for (char c : s) {
    if (c == ',') {
      if (!cur.empty()) {
        out.push_back(cur);
        cur.clear();
      }
    } else {
      cur += c;
    }
  }
  if (!cur.empty()) {
    out.push_back(cur);
  }
  return out;
}

std::vector<std::string> with_run_flags(std::vector<std::string> flags) {
  flags.insert(flags.end(), {"threads", "trace-out", "metrics-out", "audit-out", "profile-out"});
  return flags;
}

void open_run_outputs(const Args& args) {
  if (args.has("threads")) {
    util::set_global_threads(args.get_threads("threads"));
  }
  if (args.has("trace-out")) {
    telemetry::tracer().open_stream(args.get("trace-out"));
  }
  if (args.has("audit-out")) {
    telemetry::audit().open_stream(args.get("audit-out"));
  }
  if (args.has("profile-out")) {
    telemetry::profiler().enable();
  }
}

void finish_run_outputs(const Args& args) {
  if (args.has("metrics-out")) {
    telemetry::publish_thread_pool_metrics();
    telemetry::metrics().dump_file(args.get("metrics-out"));
    std::cerr << "wrote metrics to " << args.get("metrics-out") << "\n";
  }
  if (args.has("trace-out")) {
    telemetry::tracer().close_stream();
    std::cerr << "wrote trace to " << args.get("trace-out") << "\n";
  }
  if (args.has("audit-out")) {
    const std::uint64_t n = telemetry::audit().recorded();
    telemetry::audit().close_stream();
    std::cerr << "wrote audit log to " << args.get("audit-out") << " (" << n
              << " decisions; inspect with `acclaim explain`)\n";
  }
  if (args.has("profile-out")) {
    telemetry::profiler().write_folded(args.get("profile-out"));
    std::cerr << "wrote folded stacks to " << args.get("profile-out")
              << " (feed to flamegraph.pl or speedscope)\n";
  }
}

}  // namespace acclaim::cli
