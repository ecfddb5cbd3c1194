// acclaimd decision cache: an LRU of hot (quantized features -> algorithm)
// selections.
//
// Key quantization: the forest sees a scenario as the feature row
// {log2 nodes, log2 ppn, log2 msg} + algorithm one-hot (core/feature_space).
// That encoding is an injective function of the integer scenario tuple, so
// the cache quantizes the double feature row *losslessly* back to the
// integers it was derived from: (collective, nnodes, ppn, msg_bytes). A
// lossier quantization (e.g. rounding msg to its power-of-two bucket) would
// merge scenarios the model distinguishes — non-P2 message sizes produce
// fractional log2 features and can legitimately select differently — and
// would break the contract that a cache hit is bitwise-identical to direct
// CollectiveModel::select. The snapshot version is part of the key, so
// republishing a model naturally invalidates its cached decisions (stale
// versions age out of the LRU instead of being swept).
//
// Locking: one mutex guards the LRU list and its ordered index, and is only
// ever held for O(log n) map operations — no model evaluation happens under
// it. The daemon answers one connection at a time, so nothing contends on
// it. Hit/miss/eviction counts feed the telemetry registry (serve.cache.*).
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

#include "benchdata/point.hpp"
#include "collectives/types.hpp"

namespace acclaim::serve {

/// Lossless quantization of one selection query: the integer tuple the
/// encoded feature row is derived from, plus the snapshot version that
/// answered it.
struct DecisionKey {
  std::uint64_t version = 0;
  coll::Collective collective = coll::Collective::Bcast;
  int nnodes = 1;
  int ppn = 1;
  std::uint64_t msg_bytes = 8;

  auto operator<=>(const DecisionKey&) const = default;
};

/// Builds the cache key for a scenario answered by snapshot `version`.
DecisionKey quantize(std::uint64_t version, const bench::Scenario& s);

class DecisionCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
    std::size_t capacity = 0;
  };

  /// Holds at most `capacity` entries; throws InvalidArgument when it is 0.
  explicit DecisionCache(std::size_t capacity);
  DecisionCache(const DecisionCache&) = delete;
  DecisionCache& operator=(const DecisionCache&) = delete;

  /// Cache probe; a hit refreshes the entry's LRU position.
  std::optional<coll::Algorithm> get(const DecisionKey& key);

  /// Inserts (or refreshes) a decision, evicting the least recently used
  /// entry when the cache is full.
  void put(const DecisionKey& key, coll::Algorithm alg);

  /// Counts are monotonic for the cache's lifetime (they also tick the
  /// global serve.cache.* telemetry counters).
  Stats stats() const;

  std::size_t capacity() const noexcept { return capacity_; }

 private:
  using Entry = std::pair<DecisionKey, coll::Algorithm>;

  mutable std::mutex mu_;  ///< guards every member below but capacity_
  /// Front = most recently used. The index maps key -> list node.
  std::list<Entry> lru_;
  std::map<DecisionKey, std::list<Entry>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::size_t capacity_;
};

}  // namespace acclaim::serve
