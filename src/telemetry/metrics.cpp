#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace acclaim::telemetry {

Histogram::Histogram(HistogramOptions opts)
    : opts_(opts),
      buckets_(static_cast<std::size_t>(opts.buckets) + 1),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  require(opts.first_bound > 0.0, "histogram first_bound must be positive");
  require(opts.buckets >= 1, "histogram needs at least one finite bucket");
}

void Histogram::observe(double v) noexcept {
  // log2-scale bucket index without a loop: bound_i = first_bound * 2^i.
  int idx = 0;
  if (v > opts_.first_bound) {
    idx = static_cast<int>(std::ceil(std::log2(v / opts_.first_bound)));
    idx = std::min(idx, opts_.buckets);  // overflow bucket
  }
  buckets_[static_cast<std::size_t>(idx)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.add(v);
  double cur = min_.load(std::memory_order_relaxed);
  while (v < cur && !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
  cur = max_.load(std::memory_order_relaxed);
  while (v > cur && !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

double Histogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

double Histogram::min() const noexcept { return min_.load(std::memory_order_relaxed); }

double Histogram::max() const noexcept { return max_.load(std::memory_order_relaxed); }

double Histogram::bucket_bound(int i) const {
  require(i >= 0 && i < opts_.buckets, "bucket_bound: index must name a finite bucket");
  return opts_.first_bound * std::pow(2.0, static_cast<double>(i));
}

std::uint64_t Histogram::bucket_count(int i) const {
  require(i >= 0 && i < num_buckets(), "bucket_count: index out of range");
  return buckets_[static_cast<std::size_t>(i)].load(std::memory_order_relaxed);
}

double Histogram::percentile(double p) const {
  std::vector<BucketSlice> slices;
  for (int i = 0; i < num_buckets(); ++i) {
    const std::uint64_t c = bucket_count(i);
    if (c == 0) {
      continue;
    }
    BucketSlice s;
    s.le = i < opts_.buckets ? bucket_bound(i) : std::numeric_limits<double>::infinity();
    s.n = c;
    slices.push_back(s);
  }
  return percentile_from_buckets(slices, count(), min(), max(), p);
}

void Histogram::reset() noexcept {
  for (auto& b : buckets_) {
    b.store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.reset();
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
}

util::Json Histogram::to_json() const {
  util::Json doc = util::Json::object();
  const std::uint64_t n = count();
  doc["count"] = n;
  doc["sum"] = sum();
  if (n > 0) {
    doc["min"] = min();
    doc["max"] = max();
    doc["mean"] = mean();
  }
  util::Json buckets = util::Json::array();
  for (int i = 0; i < num_buckets(); ++i) {
    const std::uint64_t c = bucket_count(i);
    if (c == 0) {
      continue;
    }
    util::Json b = util::Json::object();
    if (i < opts_.buckets) {
      b["le"] = bucket_bound(i);
    } else {
      b["le"] = "inf";
    }
    b["n"] = c;
    buckets.push_back(std::move(b));
  }
  doc["buckets"] = std::move(buckets);
  return doc;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

namespace {

template <typename T, typename... Args>
T& find_or_create(std::vector<std::pair<std::string, std::unique_ptr<T>>>& items,
                  const std::string& name, Args&&... args) {
  for (auto& [n, item] : items) {
    if (n == name) {
      return *item;
    }
  }
  items.emplace_back(name, std::make_unique<T>(std::forward<Args>(args)...));
  return *items.back().second;
}

}  // namespace

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mu_);
  return find_or_create(counters_, name);
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mu_);
  return find_or_create(gauges_, name);
}

Histogram& MetricsRegistry::histogram(const std::string& name, HistogramOptions opts) {
  std::lock_guard lock(mu_);
  return find_or_create(histograms_, name, opts);
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mu_);
  for (auto& [n, c] : counters_) {
    c->reset();
  }
  for (auto& [n, g] : gauges_) {
    g->reset();
  }
  for (auto& [n, h] : histograms_) {
    h->reset();
  }
}

util::Json MetricsRegistry::to_json() const {
  std::lock_guard lock(mu_);
  const auto sorted_names = [](const auto& items) {
    std::vector<std::string> names;
    names.reserve(items.size());
    for (const auto& [n, item] : items) {
      names.push_back(n);
    }
    std::sort(names.begin(), names.end());
    return names;
  };
  const auto find = [](const auto& items, const std::string& name) -> const auto& {
    for (const auto& [n, item] : items) {
      if (n == name) {
        return *item;
      }
    }
    throw NotFoundError("metrics instrument vanished: " + name);  // unreachable
  };

  util::Json doc = util::Json::object();
  util::Json counters = util::Json::object();
  for (const std::string& n : sorted_names(counters_)) {
    counters[n] = find(counters_, n).value();
  }
  doc["counters"] = std::move(counters);
  util::Json gauges = util::Json::object();
  for (const std::string& n : sorted_names(gauges_)) {
    gauges[n] = find(gauges_, n).value();
  }
  doc["gauges"] = std::move(gauges);
  util::Json histograms = util::Json::object();
  for (const std::string& n : sorted_names(histograms_)) {
    histograms[n] = find(histograms_, n).to_json();
  }
  doc["histograms"] = std::move(histograms);
  return doc;
}

void MetricsRegistry::dump_file(const std::string& path) const { to_json().dump_file(path); }

double percentile_from_buckets(const std::vector<BucketSlice>& buckets, std::uint64_t count,
                               double min_v, double max_v, double p) {
  if (count == 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(count);
  double seen = 0.0;
  for (const BucketSlice& b : buckets) {
    const double after = seen + static_cast<double>(b.n);
    if (after >= target) {
      // Log2 buckets span (le/2, le]; the overflow bucket tops out at the
      // observed max. Interpolate the rank's position inside the span.
      const double hi = std::isinf(b.le) ? max_v : b.le;
      const double lo = std::isinf(b.le) ? hi : hi / 2.0;
      const double frac =
          b.n == 0 ? 1.0 : (target - seen) / static_cast<double>(b.n);
      const double v = lo + (hi - lo) * frac;
      return std::clamp(v, min_v, max_v);
    }
    seen = after;
  }
  return max_v;  // rank beyond the recorded buckets (p == 1 edge)
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; our instrument names use
/// '.' (and occasionally '-') as separators.
std::string prom_name(const std::string& name) {
  std::string out = "acclaim_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out += ok ? c : '_';
  }
  return out;
}

void prom_value(std::string& out, double v) {
  if (std::isinf(v)) {
    out += v > 0 ? "+Inf" : "-Inf";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out += buf;
}

}  // namespace

std::string prometheus_text(const util::Json& snap) {
  std::string out;

  for (const auto& [name, value] : snap.at("counters").as_object()) {
    const std::string n = prom_name(name) + "_total";
    out += "# TYPE " + n + " counter\n";
    out += n + " ";
    prom_value(out, value.as_number());
    out += "\n";
  }
  for (const auto& [name, value] : snap.at("gauges").as_object()) {
    const std::string n = prom_name(name);
    out += "# TYPE " + n + " gauge\n";
    out += n + " ";
    prom_value(out, value.as_number());
    out += "\n";
  }
  for (const auto& [name, hist] : snap.at("histograms").as_object()) {
    const std::string n = prom_name(name);
    out += "# TYPE " + n + " histogram\n";
    // Our buckets are sparse per-bucket counts; Prometheus buckets are
    // cumulative and must end with le="+Inf".
    std::uint64_t cum = 0;
    for (const util::Json& b : hist.at("buckets").as_array()) {
      cum += static_cast<std::uint64_t>(b.at("n").as_int());
      const util::Json& le = b.at("le");
      if (le.is_string()) {
        continue;  // overflow bucket folds into +Inf below
      }
      out += n + "_bucket{le=\"";
      prom_value(out, le.as_number());
      out += "\"} " + std::to_string(cum) + "\n";
    }
    const auto count = static_cast<std::uint64_t>(hist.at("count").as_int());
    out += n + "_bucket{le=\"+Inf\"} " + std::to_string(count) + "\n";
    out += n + "_sum ";
    prom_value(out, hist.at("sum").as_number());
    out += "\n";
    out += n + "_count " + std::to_string(count) + "\n";
  }
  return out;
}

void publish_thread_pool_metrics() {
  const util::ThreadPoolStats st = util::global_pool().stats();
  MetricsRegistry& reg = metrics();
  reg.gauge("threadpool.threads").set(static_cast<double>(st.threads));
  reg.gauge("threadpool.tasks_executed").set(static_cast<double>(st.tasks_executed));
  reg.gauge("threadpool.parallel_fors").set(static_cast<double>(st.parallel_fors));
  reg.gauge("threadpool.inline_runs").set(static_cast<double>(st.inline_runs));
  reg.gauge("threadpool.queue_peak").set(static_cast<double>(st.queue_peak));
}

}  // namespace acclaim::telemetry
