// acclaimd serving core: model store + decision cache + batched prediction.
//
// This is the library behind `acclaim serve` (the NDJSON daemon) and the
// loadgen bench: a long-lived object that answers algorithm-selection
// queries for many concurrent jobs. select() and select_batch() share one
// read path; a single query is a batch of one:
//
//   queries --> quantize(features) --> DecisionCache probe --(hit)--> answer
//                 |
//                (miss, grouped per ModelSnapshot)
//                 v
//          ModelSnapshot (pointer copied under the store's shared lock)
//                 v
//          CollectiveModel::select_batch (one fused forest call per
//          scenario; more than four fan out on the global thread pool)
//                 v
//          DecisionCache::put --> answer
//
// Every answer has the same bits as calling CollectiveModel::select directly
// on the published model: the cache key is a lossless quantization (see
// decision_cache.hpp) that includes the snapshot version, and select_batch
// is select() per scenario. The loadgen bench and tests/test_serve.cpp
// enforce this differentially.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
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
  /// select_batch. Element i is exactly what select(scenarios[i], topology)
  /// would return (modulo the cache_hit flag).
  std::vector<Decision> select_batch(const std::vector<bench::Scenario>& scenarios,
                                     const std::string& topology = "default");

  const ModelStore& store() const noexcept { return store_; }
  DecisionCache::Stats cache_stats() const { return cache_.stats(); }
  std::size_t cache_capacity() const noexcept { return cache_.capacity(); }

 private:
  /// The read path both entry points run: resolve, probe the cache, group
  /// the misses per snapshot, select_batch each group, fill the cache.
  /// Writes out[i] for scenarios[i].
  void answer(std::span<const bench::Scenario> scenarios, const std::string& topology,
              std::span<Decision> out);

  ModelStore store_;
  DecisionCache cache_;
};

}  // namespace acclaim::serve
