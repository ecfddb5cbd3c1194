// Lightweight self-profiler: scoped-timer attribution tree.
//
// Instrumented code brackets interesting work with ScopedTimer("label");
// nested timers on the same thread form an attribution path ("tune-job;
// train:bcast;forest.fit"). The profiler aggregates wall time and hit counts
// per path and exports:
//  * folded stacks ("a;b;c <self_us>" lines) consumable by flamegraph.pl /
//    speedscope — the standard "where did the time go" artifact;
//  * via telemetry::prometheus_text (metrics.hpp), the registry in the
//    Prometheus text format, which `acclaim train|tune-job --prom-out FILE`
//    writes.
//
// Disabled by default: every ScopedTimer constructor is gated on one relaxed
// atomic load, so instrumentation sites cost ~1 ns when profiling is off.
// Host-wall attribution is observability-only — it never feeds back into the
// deterministic computation (the audit log and models never see it).
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
  /// Clears accumulated attribution, keeps the enabled state.
  void reset();

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

/// RAII attribution scope. Pushes `label` onto the calling thread's path
/// stack for the duration of the scope; the destructor records the elapsed
/// wall time under the full path. No-op (one relaxed load) when the profiler
/// is disabled at construction time.
class ScopedTimer {
 public:
  explicit ScopedTimer(const char* label);
  ~ScopedTimer();
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  bool active() const noexcept { return active_; }

 private:
  bool active_;
  std::size_t restore_len_ = 0;  ///< thread-local path length to restore
  std::chrono::steady_clock::time_point start_;
};

}  // namespace acclaim::telemetry
