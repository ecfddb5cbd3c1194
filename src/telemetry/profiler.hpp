// Span, the one way library code times a scope, and the self-profiler's
// attribution tree.
//
// Instrumented code brackets interesting work with Span("label"); sites
// that keep a histogram read the span's elapsed time once the work is done.
// While the profiler is on, nested spans on the same thread form an
// attribution path ("pipeline.run;bcast;learner.run;forest.fit"). The
// profiler aggregates wall time and hit counts per path and exports:
//  * folded stacks ("a;b;c <self_us>" lines) consumable by flamegraph.pl /
//    speedscope — the standard "where did the time go" artifact;
//  * via telemetry::prometheus_text (metrics.hpp), the registry in the
//    Prometheus text format, which `acclaim report --metrics FILE
//    --prom-out OUT` renders from a run's metrics snapshot.
//
// Disabled by default: a span then costs one relaxed atomic load and one
// steady-clock read. Host-wall attribution is observability-only — it never
// feeds back into the deterministic computation (the audit log and models
// never see it).
#pragma once

#include <atomic>
#include <cstdint>
#include <chrono>
#include <map>
#include <mutex>
#include <string>

namespace acclaim::telemetry {

class Profiler {
 public:
  static Profiler& global();

  bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }
  void enable();
  /// Stops recording and clears all accumulated attribution.
  void disable();

  struct Node {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;  ///< inclusive wall time
  };

  /// Adds one timed interval under `path` (";"-joined label stack).
  void record(const std::string& path, std::uint64_t wall_ns);

  /// Accumulated attribution, keyed by path (ordered, so exports are stable).
  std::map<std::string, Node> snapshot() const;

  /// Folded-stack export: one "a;b;c <self_us>" line per path with non-zero
  /// self time (inclusive time minus the inclusive time of direct children),
  /// in path order. Feed to flamegraph.pl or speedscope.
  std::string folded() const;

  /// Writes folded() to `path`; throws IoError.
  void write_folded(const std::string& path) const;

 private:
  Profiler() = default;

  mutable std::mutex mu_;
  std::atomic<bool> enabled_{false};
  std::map<std::string, Node> nodes_;
};

/// Shorthand for Profiler::global().
inline Profiler& profiler() { return Profiler::global(); }

/// RAII timing scope. Reads the steady clock at construction; elapsed_*()
/// give the wall time since then. When the profiler is enabled at
/// construction, the span also pushes `label` onto the calling thread's
/// attribution path, and its destructor, also when the scope is left by an
/// exception, records the inclusive wall time under the full path and pops
/// the label.
class Span {
 public:
  explicit Span(const char* label);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// True when the span joined the profiler's attribution path.
  bool active() const noexcept { return active_; }

  double elapsed_ms() const noexcept { return elapsed<std::milli>(); }
  double elapsed_us() const noexcept { return elapsed<std::micro>(); }
  double elapsed_ns() const noexcept { return elapsed<std::nano>(); }

 private:
  template <class Period>
  double elapsed() const noexcept {
    return std::chrono::duration<double, Period>(std::chrono::steady_clock::now() - start_)
        .count();
  }

  bool active_;
  std::size_t restore_len_ = 0;  ///< thread-local path length to restore
  std::chrono::steady_clock::time_point start_;
};

}  // namespace acclaim::telemetry
