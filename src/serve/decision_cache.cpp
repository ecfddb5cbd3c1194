#include "serve/decision_cache.hpp"

#include "telemetry/metrics.hpp"
#include "util/error.hpp"

namespace acclaim::serve {

DecisionKey quantize(std::uint64_t version, const bench::Scenario& s) {
  return DecisionKey{version, s.collective, s.nnodes, s.ppn, s.msg_bytes};
}

DecisionCache::DecisionCache(std::size_t capacity) : capacity_(capacity) {
  require(capacity >= 1, "decision cache capacity must be >= 1");
}

std::optional<coll::Algorithm> DecisionCache::get(const DecisionKey& key) {
  static telemetry::Counter& hits = telemetry::metrics().counter("serve.cache.hits");
  static telemetry::Counter& misses = telemetry::metrics().counter("serve.cache.misses");
  std::lock_guard lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    misses.add();
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  hits.add();
  return it->second->second;
}

void DecisionCache::put(const DecisionKey& key, coll::Algorithm alg) {
  static telemetry::Counter& evictions = telemetry::metrics().counter("serve.cache.evictions");
  std::lock_guard lock(mu_);
  if (const auto it = index_.find(key); it != index_.end()) {
    it->second->second = alg;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  if (index_.size() >= capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
    ++evictions_;
    evictions.add();
  }
  lru_.emplace_front(key, alg);
  index_.emplace(key, lru_.begin());
}

DecisionCache::Stats DecisionCache::stats() const {
  std::lock_guard lock(mu_);
  return Stats{hits_, misses_, evictions_, index_.size(), capacity_};
}

}  // namespace acclaim::serve
