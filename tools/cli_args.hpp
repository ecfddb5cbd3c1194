// Minimal flag parser for the acclaim CLI.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace acclaim::cli {

/// Parses `--flag value` pairs after a subcommand. Flags must be known in
/// advance; unknown flags or missing values raise InvalidArgument with a
/// usage-oriented message.
class Args {
 public:
  /// `argv` starting *after* the subcommand token.
  Args(int argc, char** argv, const std::vector<std::string>& known_flags);

  bool has(const std::string& flag) const;
  std::string get(const std::string& flag, const std::string& fallback = "") const;
  /// Throws InvalidArgument naming the flag if absent.
  std::string require_flag(const std::string& flag) const;
  int get_int(const std::string& flag, int fallback) const;
  /// A positive count: `fallback` if absent, else an integer >= 1; anything
  /// else throws InvalidArgument naming the flag and value.
  std::size_t get_count(const std::string& flag, std::size_t fallback) const;
  /// A thread count: 0 (the pool's default) if absent, else an integer in
  /// [1, util::kMaxThreads]; anything else throws InvalidArgument naming
  /// the flag and value.
  int get_threads(const std::string& flag) const;
  double get_double(const std::string& flag, double fallback) const;
  std::uint64_t get_bytes(const std::string& flag, std::uint64_t fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Splits "a,b,c" into {"a","b","c"} (empty pieces dropped).
std::vector<std::string> split_csv(const std::string& s);

}  // namespace acclaim::cli
