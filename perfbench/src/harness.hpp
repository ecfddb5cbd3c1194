// Shared plumbing of the perfbench binary: options, result records,
// repetition timing, exact statistics, registry snapshots and spans.
//
// The benchmark reaches into the program only through user-level entry points
// and the metrics registry's export, read by name (see README.md), so that
// internal refactors of the library do not break it.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test size: every workload shrinks to a few seconds.
  bool tiny = false;
  /// Serve self-test: corrupt this differential-check response (-1: none).
  long corrupt_response = -1;
  /// File the traced run writes its spans to (JSON lines).
  std::string span_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  /// Per-layer metrics whose registry source does not exist in this build.
  std::vector<std::string> absent;
  /// Output fingerprint of the timed run (and of the traced run, if any).
  std::string fingerprint;
  std::string traced_fingerprint;

  /// Marks the run incorrect and says why on stderr.
  void fail(const std::string& why);
  void add_e2e(std::string name, double value, std::string unit);
  void add_layer(std::string name, double value, std::string unit);
};

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);
double median(std::vector<double> v);
/// Exact nearest-rank quantile of the samples (p in [0, 1]).
double quantile(std::vector<double> v, double p);

/// Every timed phase runs at least this many units of work and this many
/// set-up samples; the metrics are medians.
inline constexpr int kMinReps = 3;
inline constexpr int kSetupReps = 9;

/// What a timed phase measured.
struct Phase {
  std::vector<double> setup_s;   ///< per sample: mean seconds per set-up call
  std::vector<double> unit_s;    ///< per unit of work: the seconds it returned
  std::vector<double> unit_cpu_s;  ///< per unit: process CPU seconds of the call
  double peak_rss_mb = 0.0;      ///< peak resident set when the last unit ended
};

/// The timed phase: runs units of work until their seconds reach `budget_s`
/// and at least kMinReps ran, each preceded by set-up samples (three per
/// unit until kSetupReps are taken, then one), so every unit runs on the
/// state the set-up just built. A set-up sample first calls `discard`,
/// untimed, to drop what the last unit left behind; then it calls `setup`
/// once, or, while a call takes under 1 ms, repeats it until 20 ms have
/// passed, and keeps the mean time per call. So microseconds of set-up are
/// measured well above the clock's resolution, and a set-up of
/// milliseconds, which each repeat would tear down again inside the
/// sample, is timed alone. `unit(rep)` does one unit
/// and returns the seconds to record. Interleaving samples the set-up at
/// many heap states: a process keeps its memory placement for life, and
/// that alone moved a microsecond set-up by up to 25% between processes.
/// Prints min/median/max of both and the units' process CPU time beside
/// their wall time.
Phase run_phase(double budget_s, const std::function<void()>& discard,
                const std::function<void()>& setup, const std::function<double(int)>& unit);

/// Adds the end-to-end metrics of a phase: wall_s and setup_s (medians) and
/// peak_rss_mb (sampled as the phase ended, before any check or pricing).
void add_phase_metrics(Result& r, const Phase& p);

/// Peak resident set of this process so far, in MB.
double peak_rss_mb();

/// FNV-1a over bytes, chainable.
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h = kFnvOffset);
std::uint64_t fnv1a_double(double v, std::uint64_t h);
std::string hex64(std::uint64_t v);

/// A by-name copy of the metrics registry (counters, gauges, histogram sum
/// and count). Reading the export instead of asking the registry for an
/// instrument keeps a renamed or deleted instrument from being re-created:
/// it simply shows as missing.
class RegistrySnapshot {
 public:
  static RegistrySnapshot take();

  std::optional<double> counter(const std::string& name) const;
  std::optional<double> hist_sum(const std::string& name) const;
  std::optional<double> hist_count(const std::string& name) const;

 private:
  std::map<std::string, double> counters_;
  std::map<std::string, double> hist_sum_;
  std::map<std::string, double> hist_count_;
};

/// Growth of registry instruments between two snapshots. A name missing
/// from the later snapshot yields nullopt, which callers report as absent.
struct RegistryDelta {
  RegistrySnapshot before;
  RegistrySnapshot after;

  std::optional<double> counter(const std::string& name) const;
  std::optional<double> hist_sum(const std::string& name) const;
  std::optional<double> hist_count(const std::string& name) const;
};

/// In-memory span recorder for the traced run. Spans are written out once,
/// when the run ends.
class SpanLog {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;  ///< shared by the spans of one request
    int parent = -1;       ///< index of the enclosing span, -1 at the root
    double start_s = 0.0;  ///< since the log was created
    double end_s = 0.0;
    double child_s = 0.0;  ///< registry time attributed to children
  };

  SpanLog();
  int open(std::string name, std::uint64_t id, int parent = -1);
  void close(int span);
  /// Charges `seconds` of registry-measured child work to `span`, so its
  /// self time does not count it twice.
  void add_child_time(int span, double seconds);
  double duration(int span) const;
  /// Duration minus child spans minus registry child time.
  double self_time(int span) const;
  /// Writes one JSON object per span; returns false when the file cannot
  /// be opened.
  bool write(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Sets `name` to the registry delta when present, else lists it as absent.
void layer_or_absent(Result& r, const std::string& name, std::optional<double> value,
                     const std::string& unit, double scale = 1.0);

/// Reports the learning layers under AcclaimPipeline::run and replay_fleet
/// (CART fit, jackknife sweep, learner, scheduler, simulation) from the
/// registry growth over a traced call. Returns the registry-measured child
/// time (fit + sweep + simulation) for the caller's span.
double report_learning_layers(Result& r, const RegistryDelta& d);

Result run_tune(const Options& opts);
Result run_fleet(const Options& opts);
Result run_serve(const Options& opts);

}  // namespace perfbench
