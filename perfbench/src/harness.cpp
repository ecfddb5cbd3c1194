#include "harness.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>

#include "telemetry/metrics.hpp"
#include "util/json.hpp"

namespace perfbench {

void Result::fail(const std::string& why) {
  correct = false;
  std::cerr << "perfbench: check failed: " << why << "\n";
}

void Result::add_e2e(std::string name, double value, std::string unit) {
  end_to_end.push_back({std::move(name), value, std::move(unit)});
}

void Result::add_layer(std::string name, double value, std::string unit) {
  layers.push_back({std::move(name), value, std::move(unit)});
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double quantile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

namespace {

double setup_sample(const std::function<void()>& discard, const std::function<void()>& setup) {
  constexpr double kMinSampleS = 0.02;
  constexpr double kRepeatBelowS = 1e-3;
  discard();
  const auto t0 = Clock::now();
  int calls = 0;
  double spent = 0.0;
  do {
    setup();
    ++calls;
    spent = seconds_since(t0);
  } while (spent / calls < kRepeatBelowS && spent < kMinSampleS);
  return spent / calls;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

void print_spread(const char* what, const std::vector<double>& v) {
  const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  std::cout << what << ": " << v.size() << " samples, min " << *lo << " s, median " << median(v)
            << " s, max " << *hi << " s\n";
}

}  // namespace

Phase run_phase(double budget_s, const std::function<void()>& discard,
                const std::function<void()>& setup, const std::function<double(int)>& unit) {
  Phase p;
  double spent = 0.0;
  std::vector<double> cpu_share;
  while (p.unit_s.size() < static_cast<std::size_t>(kMinReps) || spent < budget_s) {
    const int samples = p.setup_s.size() < static_cast<std::size_t>(kSetupReps)
                            ? kSetupReps / kMinReps
                            : 1;
    for (int i = 0; i < samples; ++i) {
      p.setup_s.push_back(setup_sample(discard, setup));
    }
    const double cpu0 = process_cpu_s();
    const auto t0 = Clock::now();
    p.unit_s.push_back(unit(static_cast<int>(p.unit_s.size())));
    const double wall = seconds_since(t0);
    p.unit_cpu_s.push_back(process_cpu_s() - cpu0);
    cpu_share.push_back(p.unit_cpu_s.back() / wall);
    spent += p.unit_s.back();
  }
  p.peak_rss_mb = peak_rss_mb();
  print_spread("set-up", p.setup_s);
  print_spread("timed", p.unit_s);
  print_spread("timed cpu", p.unit_cpu_s);
  std::cout << "timed cpu share of the unit's wall: median " << median(cpu_share) << "\n";
  return p;
}

void add_phase_metrics(Result& r, const Phase& p) {
  r.add_e2e("wall_s", median(p.unit_s), "s");
  r.add_e2e("setup_s", median(p.setup_s), "s");
  r.add_e2e("peak_rss_mb", p.peak_rss_mb, "MB");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a_double(double v, std::uint64_t h) {
  char bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  return fnv1a(std::string_view(bytes, sizeof bytes), h);
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

RegistrySnapshot RegistrySnapshot::take() {
  const acclaim::util::Json doc = acclaim::telemetry::metrics().to_json();
  RegistrySnapshot s;
  if (doc.contains("counters")) {
    for (const auto& [name, v] : doc.at("counters").as_object()) {
      s.counters_[name] = v.as_number();
    }
  }
  if (doc.contains("histograms")) {
    for (const auto& [name, h] : doc.at("histograms").as_object()) {
      s.hist_sum_[name] = h.at("sum").as_number();
      s.hist_count_[name] = h.at("count").as_number();
    }
  }
  return s;
}

namespace {

std::optional<double> lookup(const std::map<std::string, double>& m, const std::string& name) {
  const auto it = m.find(name);
  return it == m.end() ? std::nullopt : std::optional<double>(it->second);
}

/// after - before; an instrument first registered inside the window grew
/// from zero.
std::optional<double> growth(std::optional<double> before, std::optional<double> after) {
  if (!after) {
    return std::nullopt;
  }
  return *after - before.value_or(0.0);
}

/// Registry time spent in simulation: the batch wall covers every batched
/// point; the per-point wall also covers points measured outside batches.
std::optional<double> simulation_s(const RegistryDelta& d) {
  const auto batch_ms = d.hist_sum("simnet.batch_wall_ms");
  const auto point_us = d.hist_sum("simnet.microbench_wall_us");
  if (!batch_ms && !point_us) {
    return std::nullopt;
  }
  return std::max(batch_ms.value_or(0.0) * 1e-3, point_us.value_or(0.0) * 1e-6);
}

}  // namespace

std::optional<double> RegistrySnapshot::counter(const std::string& name) const {
  return lookup(counters_, name);
}
std::optional<double> RegistrySnapshot::hist_sum(const std::string& name) const {
  return lookup(hist_sum_, name);
}
std::optional<double> RegistrySnapshot::hist_count(const std::string& name) const {
  return lookup(hist_count_, name);
}

std::optional<double> RegistryDelta::counter(const std::string& name) const {
  return growth(before.counter(name), after.counter(name));
}
std::optional<double> RegistryDelta::hist_sum(const std::string& name) const {
  return growth(before.hist_sum(name), after.hist_sum(name));
}
std::optional<double> RegistryDelta::hist_count(const std::string& name) const {
  return growth(before.hist_count(name), after.hist_count(name));
}

SpanLog::SpanLog() : origin_(Clock::now()) {}

int SpanLog::open(std::string name, std::uint64_t id, int parent) {
  Span s;
  s.name = std::move(name);
  s.id = id;
  s.parent = parent;
  s.start_s = seconds_since(origin_);
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int span) {
  spans_[static_cast<std::size_t>(span)].end_s = seconds_since(origin_);
}

void SpanLog::add_child_time(int span, double seconds) {
  spans_[static_cast<std::size_t>(span)].child_s += seconds;
}

double SpanLog::duration(int span) const {
  const Span& s = spans_[static_cast<std::size_t>(span)];
  return s.end_s - s.start_s;
}

double SpanLog::self_time(int span) const {
  double children = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent == span) {
      children += duration(static_cast<int>(i));
    }
  }
  return duration(span) - children - spans_[static_cast<std::size_t>(span)].child_s;
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  for (const Span& s : spans_) {
    acclaim::util::Json row = acclaim::util::Json::object();
    row["name"] = s.name;
    row["id"] = static_cast<double>(s.id);
    row["parent"] = s.parent;
    row["start_s"] = s.start_s;
    row["end_s"] = s.end_s;
    row["registry_child_s"] = s.child_s;
    out << row.dump() << "\n";
  }
  return static_cast<bool>(out);
}

double report_learning_layers(Result& r, const RegistryDelta& d) {
  const auto fit_ms = d.hist_sum("ml.forest.fit_ms");
  const auto sweep_ms = d.hist_sum("model.variance_sweep_ms");
  const auto sim_s = simulation_s(d);
  layer_or_absent(r, "ml.fit_s", fit_ms, "s", 1e-3);
  layer_or_absent(r, "ml.fits", d.hist_count("ml.forest.fit_ms"), "count");
  layer_or_absent(r, "ml.sweep_s", sweep_ms, "s", 1e-3);
  layer_or_absent(r, "ml.sweeps", d.hist_count("model.variance_sweep_ms"), "count");
  layer_or_absent(r, "ml.rows", d.counter("ml.forest.batched_rows"), "count");
  layer_or_absent(r, "core.iterations", d.counter("learner.iterations"), "count");
  layer_or_absent(r, "core.candidates", d.counter("scheduler.candidates_considered"), "count");
  layer_or_absent(r, "simnet.measure_s", d.hist_sum("simnet.batch_wall_ms"), "s", 1e-3);
  layer_or_absent(r, "simnet.schedule_s", d.hist_sum("simnet.microbench_wall_us"), "s", 1e-6);
  layer_or_absent(r, "simnet.runs", d.counter("simnet.microbench_runs"), "count");
  return fit_ms.value_or(0.0) * 1e-3 + sweep_ms.value_or(0.0) * 1e-3 + sim_s.value_or(0.0);
}

void layer_or_absent(Result& r, const std::string& name, std::optional<double> value,
                     const std::string& unit, double scale) {
  if (value) {
    r.add_layer(name, *value * scale, unit);
  } else {
    r.absent.push_back(name);
  }
}

}  // namespace perfbench
