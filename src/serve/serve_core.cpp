#include "serve/serve_core.hpp"

#include <map>

#include "telemetry/metrics.hpp"
#include "telemetry/profiler.hpp"
#include "util/error.hpp"

namespace acclaim::serve {

ServeCore::ServeCore(ServeConfig cfg) : cache_(cfg.cache_capacity) {}

std::uint64_t ServeCore::publish(const ModelKey& key, core::CollectiveModel model) {
  static telemetry::Counter& published = telemetry::metrics().counter("serve.models_published");
  const std::uint64_t version = store_.publish(key, std::move(model));
  published.add();
  return version;
}

void ServeCore::answer(std::span<const bench::Scenario> scenarios, const std::string& topology,
                       std::span<Decision> out) {
  // Resolve snapshots and probe the cache. Misses are grouped per snapshot
  // so each group runs through that model's select_batch. (A batch usually
  // spans one or two collectives; the group count is tiny.)
  struct MissGroup {
    std::shared_ptr<const ModelSnapshot> snap;
    std::vector<std::size_t> indices;
    std::vector<bench::Scenario> scenarios;
  };
  std::map<std::uint64_t, MissGroup> misses;  // keyed by snapshot version
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const ModelKey key{scenarios[i].collective, scenarios[i].nranks(), topology};
    auto snap = store_.resolve(key);
    if (!snap) {
      throw NotFoundError("no model published for " + key.to_string());
    }
    out[i].version = snap->version;
    if (const auto cached = cache_.get(quantize(snap->version, scenarios[i]))) {
      out[i].algorithm = *cached;
      out[i].cache_hit = true;
    } else {
      MissGroup& group = misses[snap->version];
      if (!group.snap) {
        group.snap = std::move(snap);
      }
      group.indices.push_back(i);
      group.scenarios.push_back(scenarios[i]);
    }
  }
  // select_batch is select() per scenario, so every answer is direct
  // selection's bit for bit.
  for (auto& [version, group] : misses) {
    const std::vector<coll::Algorithm> algs = group.snap->model.select_batch(group.scenarios);
    for (std::size_t j = 0; j < group.indices.size(); ++j) {
      out[group.indices[j]].algorithm = algs[j];
      cache_.put(quantize(version, group.scenarios[j]), algs[j]);
    }
  }
}

Decision ServeCore::select(const bench::Scenario& s, const std::string& topology) {
  static telemetry::Histogram& query_us =
      telemetry::metrics().histogram("serve.query_us", {1e-3, 48});
  static telemetry::Counter& queries = telemetry::metrics().counter("serve.queries");
  const telemetry::Span span("serve.select");
  Decision d;
  answer({&s, 1}, topology, {&d, 1});
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
  answer(scenarios, topology, out);
  queries.add(scenarios.size());
  batch_size.observe(static_cast<double>(scenarios.size()));
  batch_us.observe(span.elapsed_us());
  return out;
}

}  // namespace acclaim::serve
