// Process-wide metrics registry: counters, gauges, and log-scale histograms.
//
// Instrumented library code records into named instruments owned by the
// global registry; the CLI (--metrics-out) and the benches export a JSON
// snapshot at the end of a run. Design constraints, in order:
//  * lock-cheap on the hot path — recording is a relaxed atomic RMW, no
//    mutex; the registry mutex guards only name->instrument resolution,
//    which call sites amortize with a function-local static reference;
//  * resettable — tests zero all values between cases without invalidating
//    cached references (instruments are never destroyed, only cleared);
//  * always compiled in — unlike the trace sinks there is no off switch;
//    the per-event cost must therefore stay in the nanosecond range.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace acclaim::telemetry {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-written or accumulated floating-point value (set() for levels,
/// add() for totals such as simulated seconds).
class Gauge {
 public:
  void set(double v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double cur = v_.load(std::memory_order_relaxed);
    while (!v_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

struct HistogramOptions {
  /// Upper bound of the first bucket; every later bucket doubles it
  /// (fixed log-scale, so bucketing needs no per-histogram configuration
  /// to stay comparable across runs).
  double first_bound = 1e-6;
  /// Number of finite buckets; values beyond the last bound land in a
  /// dedicated overflow bucket.
  int buckets = 48;
};

/// Fixed log2-scale histogram: bucket i holds observations in
/// (first_bound * 2^(i-1), first_bound * 2^i], bucket 0 holds everything
/// <= first_bound, and the final (overflow) bucket everything beyond the
/// last finite bound. Also tracks count/sum/min/max.
class Histogram {
 public:
  explicit Histogram(HistogramOptions opts = {});

  void observe(double v) noexcept;

  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  double sum() const noexcept { return sum_.value(); }
  double mean() const noexcept;
  /// +inf / -inf when empty.
  double min() const noexcept;
  double max() const noexcept;

  int num_buckets() const noexcept { return static_cast<int>(buckets_.size()); }
  /// Upper bound of finite bucket i; the overflow bucket has no bound.
  double bucket_bound(int i) const;
  std::uint64_t bucket_count(int i) const;

  /// p-quantile (p in [0, 1]) estimated from the log2 bucket counts with
  /// linear interpolation inside the covering bucket, clamped to the
  /// observed [min, max]. NaN when the histogram is empty.
  double percentile(double p) const;

  void reset() noexcept;

  /// {"count":..,"sum":..,"min":..,"max":..,"buckets":[{"le":..,"n":..}...]}
  /// Empty buckets are elided so exports stay small.
  util::Json to_json() const;

 private:
  HistogramOptions opts_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  ///< last entry = overflow
  std::atomic<std::uint64_t> count_{0};
  Gauge sum_;
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// Named instrument store. Instruments live for the registry's lifetime;
/// reset() clears values but never invalidates references, so call sites
/// may cache `static Counter& c = metrics().counter("x");` safely.
class MetricsRegistry {
 public:
  /// The process-wide registry used by all instrumented library code.
  static MetricsRegistry& global();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name, HistogramOptions opts = {});

  /// Zeroes every instrument (tests; the CLI before a run).
  void reset();

  /// {"counters":{..},"gauges":{..},"histograms":{..}} with instruments in
  /// name order. Zero-valued counters/gauges are included (a zero counter
  /// is information: the code path was compiled in but never taken).
  util::Json to_json() const;

  /// Serializes to_json() to `path` (2-space indent); throws IoError.
  void dump_file(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  // Insertion-ordered (to_json sorts by name); unique_ptr keeps instrument
  // addresses stable across later insertions.
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> histograms_;
};

/// Shorthand for MetricsRegistry::global().
inline MetricsRegistry& metrics() { return MetricsRegistry::global(); }

/// One (upper_bound, count) pair of a log2-scale histogram; an infinite
/// bound marks the overflow bucket. Mirrors the Histogram::to_json layout so
/// `acclaim report --metrics` can summarize exported snapshots.
struct BucketSlice {
  double le = 0.0;
  std::uint64_t n = 0;
};

/// Shared percentile estimator for Histogram::percentile and for snapshots
/// re-read from JSON: walks the (sparse, sorted) bucket list to the bucket
/// covering rank p*count, interpolates linearly between the bucket's bounds
/// (each log2 bucket spans [le/2, le]), and clamps to [min_v, max_v]. NaN
/// when count is 0.
double percentile_from_buckets(const std::vector<BucketSlice>& buckets, std::uint64_t count,
                               double min_v, double max_v, double p);

/// Prometheus text-format (version 0.0.4) exposition of a registry snapshot
/// (MetricsRegistry::to_json, or a --metrics-out file read back):
/// counters as `acclaim_<name>_total`, gauges as `acclaim_<name>`, histograms
/// as the cumulative `_bucket{le=...}` / `_sum` / `_count` series, each with a
/// `# TYPE` line. Instrument names are sanitized ('.' and '-' become '_').
/// `acclaim report --metrics FILE --prom-out OUT` writes this output.
std::string prometheus_text(const util::Json& snapshot);

/// Copies the global thread pool's usage counters into the registry as
/// gauges (threadpool.threads, .tasks_executed, .parallel_fors,
/// .inline_runs, .queue_peak). The pool lives below telemetry in the layer
/// graph and cannot record into the registry itself; call this before
/// exporting a snapshot (the CLI and benches do).
void publish_thread_pool_metrics();

}  // namespace acclaim::telemetry
