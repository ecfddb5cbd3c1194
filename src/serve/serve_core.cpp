#include "serve/serve_core.hpp"

#include <map>

#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "util/error.hpp"

namespace acclaim::serve {

namespace {

constexpr int kStoreShards = 8;
constexpr int kCacheShards = 8;
/// Miss groups at or above this size route through CollectiveModel::
/// select_batch (parallel fused kernel); smaller ones run the scalar path.
constexpr std::size_t kBatchThreshold = 4;

}  // namespace

ServeCore::ServeCore(ServeConfig cfg)
    : store_(kStoreShards), cache_(cfg.cache_capacity, kCacheShards) {}

std::uint64_t ServeCore::publish(const ModelKey& key, core::CollectiveModel model) {
  static telemetry::Counter& published = telemetry::metrics().counter("serve.models_published");
  const std::uint64_t version = store_.publish(key, std::move(model));
  published.add();
  return version;
}

std::shared_ptr<const ModelSnapshot> ServeCore::resolve_or_throw(
    const bench::Scenario& s, const std::string& topology) const {
  auto snap = store_.resolve(ModelKey{s.collective, s.nranks(), topology});
  if (!snap) {
    throw NotFoundError("no model published for " +
                        ModelKey{s.collective, s.nranks(), topology}.to_string());
  }
  return snap;
}

Decision ServeCore::select(const bench::Scenario& s, const std::string& topology) {
  static telemetry::Histogram& query_us =
      telemetry::metrics().histogram("serve.query_us", {1e-3, 48});
  static telemetry::Counter& queries = telemetry::metrics().counter("serve.queries");
  const telemetry::Span span("serve.select");
  const auto snap = resolve_or_throw(s, topology);
  Decision d;
  d.version = snap->version;
  const DecisionKey key = quantize(snap->version, s);
  if (const auto cached = cache_.get(key)) {
    d.algorithm = *cached;
    d.cache_hit = true;
  } else {
    d.algorithm = snap->model.select(s);
    cache_.put(key, d.algorithm);
  }
  queries.add();
  query_us.observe(span.elapsed_us());
  return d;
}

std::vector<Decision> ServeCore::select_batch(const std::vector<bench::Scenario>& scenarios,
                                              const std::string& topology) {
  static telemetry::Histogram& batch_size =
      telemetry::metrics().histogram("serve.batch_size", {1.0, 24});
  static telemetry::Histogram& batch_us =
      telemetry::metrics().histogram("serve.batch_us", {1e-2, 48});
  static telemetry::Counter& queries = telemetry::metrics().counter("serve.queries");
  if (scenarios.empty()) {
    return {};
  }
  const telemetry::Span span("serve.select_batch");
  std::vector<Decision> out(scenarios.size());

  // Pass 1: resolve snapshots and probe the cache. Misses are grouped per
  // snapshot so each group can run through that model's batched kernel.
  // (A batch usually spans one or two collectives; the group count is tiny.)
  struct MissGroup {
    std::shared_ptr<const ModelSnapshot> snap;
    std::vector<std::size_t> indices;
    std::vector<bench::Scenario> scenarios;
  };
  std::map<std::uint64_t, MissGroup> misses;  // keyed by snapshot version
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const auto snap = resolve_or_throw(scenarios[i], topology);
    out[i].version = snap->version;
    if (const auto cached = cache_.get(quantize(snap->version, scenarios[i]))) {
      out[i].algorithm = *cached;
      out[i].cache_hit = true;
    } else {
      MissGroup& group = misses[snap->version];
      if (!group.snap) {
        group.snap = snap;
      }
      group.indices.push_back(i);
      group.scenarios.push_back(scenarios[i]);
    }
  }

  // Pass 2: evaluate the misses. select_batch == per-scenario select() bit
  // for bit (core/model.hpp), so routing by size is purely a throughput
  // decision.
  for (auto& [version, group] : misses) {
    if (group.scenarios.size() >= kBatchThreshold) {
      const std::vector<coll::Algorithm> algs = group.snap->model.select_batch(group.scenarios);
      for (std::size_t j = 0; j < group.indices.size(); ++j) {
        out[group.indices[j]].algorithm = algs[j];
      }
    } else {
      for (std::size_t j = 0; j < group.indices.size(); ++j) {
        out[group.indices[j]].algorithm = group.snap->model.select(group.scenarios[j]);
      }
    }
    for (std::size_t j = 0; j < group.indices.size(); ++j) {
      cache_.put(quantize(version, group.scenarios[j]), out[group.indices[j]].algorithm);
    }
  }

  queries.add(scenarios.size());
  batch_size.observe(static_cast<double>(scenarios.size()));
  batch_us.observe(span.elapsed_us());
  return out;
}

}  // namespace acclaim::serve
