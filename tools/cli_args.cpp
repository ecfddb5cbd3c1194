#include "cli_args.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>

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
int parse_int_value(const std::string& flag, const std::string& value) {
  const char* begin = value.c_str();
  char* end = nullptr;
  errno = 0;
  const long long n = std::strtoll(begin, &end, 10);
  if (end == begin || *end != '\0') {
    bad_value(flag, value, "an integer");
  }
  if (errno == ERANGE || n < std::numeric_limits<int>::min() ||
      n > std::numeric_limits<int>::max()) {
    bad_value(flag, value, "an integer in int range");
  }
  return static_cast<int>(n);
}

/// Strict floating-point: whole-token conversion to a finite double.
double parse_double_value(const std::string& flag, const std::string& value) {
  const char* begin = value.c_str();
  char* end = nullptr;
  errno = 0;
  const double d = std::strtod(begin, &end);
  if (end == begin || *end != '\0') {
    bad_value(flag, value, "a number");
  }
  if (errno == ERANGE) {
    bad_value(flag, value, "a number in double range");
  }
  return d;
}

}  // namespace

Args::Args(int argc, char** argv, const std::vector<std::string>& known_flags) {
  for (int i = 0; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) {
      throw InvalidArgument("expected a --flag, got '" + flag + "'");
    }
    const std::string name = flag.substr(2);
    if (std::find(known_flags.begin(), known_flags.end(), name) == known_flags.end()) {
      throw InvalidArgument("unknown flag '--" + name + "'");
    }
    if (i + 1 >= argc) {
      throw InvalidArgument("flag '--" + name + "' is missing its value");
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
  return has(flag) ? parse_int_value(flag, values_.at(flag)) : fallback;
}

std::size_t Args::get_count(const std::string& flag, std::size_t fallback) const {
  if (!has(flag)) {
    return fallback;
  }
  const std::string& value = values_.at(flag);
  const int n = parse_int_value(flag, value);
  if (n < 1) {
    bad_value(flag, value, "an integer >= 1");
  }
  return static_cast<std::size_t>(n);
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
  return has(flag) ? parse_double_value(flag, values_.at(flag)) : fallback;
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

}  // namespace acclaim::cli
