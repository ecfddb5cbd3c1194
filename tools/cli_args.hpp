// The one command-line front end: the flag parser every binary uses (the
// acclaim CLI's subcommands, and every bench through bench/common.hpp's
// BenchEnv), and the routine that opens and writes a run's outputs from the
// five run flags they share.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace acclaim::cli {

/// Parses `--flag value` pairs and value-less `--switch`es. Every flag and
/// switch must be declared; an unknown flag, a missing value or a stray
/// positional raises InvalidArgument with a one-line message, and so does
/// every getter whose value does not convert, naming the flag and value.
class Args {
 public:
  /// `argv` starts *after* the program or subcommand token. `positional`,
  /// when set, names the flag an optional leading non-flag token stands for
  /// (`acclaim report t.jsonl` is `acclaim report --trace t.jsonl`); giving
  /// it both ways is an error.
  Args(int argc, char** argv, const std::vector<std::string>& flags,
       const std::vector<std::string>& switches = {}, const std::string& positional = {});

  /// True for a given flag or switch.
  bool has(const std::string& flag) const;
  std::string get(const std::string& flag, const std::string& fallback = "") const;
  /// Throws InvalidArgument naming the flag if absent.
  std::string require_flag(const std::string& flag) const;
  int get_int(const std::string& flag, int fallback) const;
  /// A positive count: `fallback` if absent, else an integer >= 1 (that
  /// fits an int).
  std::size_t get_count(const std::string& flag, std::size_t fallback) const;
  /// Comma-separated positive counts ("4,8,16"): `fallback` if absent, else
  /// a non-empty list whose every piece is an integer >= 1.
  std::vector<int> get_counts(const std::string& flag, std::vector<int> fallback) const;
  /// A thread count: 0 (the pool's default) if absent, else an integer in
  /// [1, util::kMaxThreads].
  int get_threads(const std::string& flag) const;
  /// A finite double.
  double get_double(const std::string& flag, double fallback) const;
  std::uint64_t get_bytes(const std::string& flag, std::uint64_t fallback) const;
  /// `yes` or `no`; `fallback` if absent.
  bool get_yes_no(const std::string& flag, bool fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Splits "a,b,c" into {"a","b","c"} (empty pieces dropped).
std::vector<std::string> split_csv(const std::string& s);

/// `flags` plus the five run flags that `train`, `tune-job`, `serve`,
/// `fleet` and every bench take:
///   --threads N                size the global compute pool
///   --trace-out FILE.jsonl     stream telemetry events (`acclaim report`)
///   --metrics-out FILE.json    metrics snapshot at exit (`acclaim report --metrics`)
///   --audit-out FILE.jsonl     stream decision records (`acclaim explain`)
///   --profile-out FILE.folded  self-profiler folded stacks at exit
std::vector<std::string> with_run_flags(std::vector<std::string> flags);

/// Applies the run flags: sizes the pool and starts the trace, audit and
/// profiler recordings. Call before any instrumented work.
void open_run_outputs(const Args& args);

/// Writes the metrics snapshot (with the pool's stats) and the folded
/// profile, and closes the trace and audit streams. One note per file goes
/// to stderr, so stdout keeps only the command's own output.
void finish_run_outputs(const Args& args);

}  // namespace acclaim::cli
