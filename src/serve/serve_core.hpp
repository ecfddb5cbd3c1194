// acclaimd serving core: model store + decision cache + batched prediction.
//
// This is the library behind `acclaim serve` (the NDJSON daemon) and the
// loadgen bench: a long-lived object that answers algorithm-selection
// queries for many concurrent jobs. The read path is:
//
//   query --> quantize(features) --> DecisionCache probe --(hit)--> answer
//                 |
//                (miss)
//                 v
//          ModelSnapshot (pointer copied under its store shard's shared lock)
//                 v
//          CollectiveModel::select / select_batch (flat-forest kernels,
//          batches fan out on the global thread pool)
//                 v
//          DecisionCache::put --> answer
//
// Both paths return the same bits as calling CollectiveModel::select
// directly on the published model: the cache key is a lossless quantization
// (see decision_cache.hpp) that includes the snapshot version, and
// select_batch is documented (and tested) to equal per-scenario select().
// The loadgen bench and tests/test_serve.cpp enforce this differentially.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "serve/decision_cache.hpp"
#include "serve/model_store.hpp"

namespace acclaim::serve {

struct ServeConfig {
  std::size_t cache_capacity = 1 << 16;
};

/// One answered query.
struct Decision {
  coll::Algorithm algorithm = coll::Algorithm::BcastBinomial;
  std::uint64_t version = 0;  ///< snapshot that decided
  bool cache_hit = false;
};

class ServeCore {
 public:
  explicit ServeCore(ServeConfig cfg = {});

  /// Publishes a trained model; see ModelStore::publish.
  std::uint64_t publish(const ModelKey& key, core::CollectiveModel model);

  /// Answers one query. The model key is derived from the scenario
  /// (collective, nnodes x ppn) and `topology`, with the wildcard-scale
  /// fallback of ModelStore::resolve. Throws NotFoundError when no model
  /// covers the query.
  Decision select(const bench::Scenario& s, const std::string& topology = "default");

  /// Answers a batch of queries against one topology. Cache hits resolve
  /// immediately; the misses of each snapshot run through the model's
  /// batched selection kernel (which fans out on the global thread pool).
  /// Element i is exactly what select(scenarios[i], topology) would return
  /// (modulo the cache_hit flag).
  std::vector<Decision> select_batch(const std::vector<bench::Scenario>& scenarios,
                                     const std::string& topology = "default");

  const ModelStore& store() const noexcept { return store_; }
  DecisionCache::Stats cache_stats() const { return cache_.stats(); }
  std::size_t cache_capacity() const noexcept { return cache_.capacity(); }

 private:
  std::shared_ptr<const ModelSnapshot> resolve_or_throw(const bench::Scenario& s,
                                                        const std::string& topology) const;

  ModelStore store_;
  DecisionCache cache_;
};

}  // namespace acclaim::serve
