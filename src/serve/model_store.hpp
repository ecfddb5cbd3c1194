// acclaimd model store: read-mostly registry of published models.
//
// The serving side of ACCLAiM (ROADMAP "tuning-as-a-service daemon") keeps
// one immutable ModelSnapshot per (collective, comm size, topology signature)
// key. Publication is copy-on-write: training code fits a private
// CollectiveModel (whose fitted forest is itself immutable-once-built, see
// core/model.hpp), wraps it in a snapshot, and swapping the key's
// shared_ptr makes it visible. Queries in flight keep whatever snapshot they
// resolved — they never observe a half-published model.
//
// Locking discipline: one shared_mutex guards the ordered key -> snapshot
// map. Readers copy a snapshot pointer under the shared side; publishers
// install one under the exclusive side, and only when its version is
// higher, so racing publishers cannot leave an older model visible. Keys
// are never erased.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/model.hpp"

namespace acclaim::serve {

/// Identity of one served model. `comm_size` is the total rank count
/// (nodes x ppn) the model was tuned for; 0 is the wildcard scale a lookup
/// falls back to when no exact-scale model exists (a job-level model that
/// covers its whole trained grid). `topology` is the machine/topology
/// signature (e.g. the simnet machine name).
struct ModelKey {
  coll::Collective collective = coll::Collective::Bcast;
  int comm_size = 0;
  std::string topology = "default";

  auto operator<=>(const ModelKey&) const = default;

  std::string to_string() const;
};

/// An immutable published model. Snapshots are shared by const pointer and
/// never mutated after publish(); `version` is unique and increasing across
/// the whole store, so a (version, scenario) pair names one decision forever
/// (the decision cache keys on it).
struct ModelSnapshot {
  ModelKey key;
  std::uint64_t version = 0;
  core::CollectiveModel model;
  /// Optional transfer payload: the labeled points behind `model`, shared
  /// immutable like the snapshot itself. The serving read path never touches
  /// it; fleet warm-start (core::WarmStart) republishes from it. nullptr
  /// when the publisher attached none.
  std::shared_ptr<const std::vector<core::LabeledPoint>> support;
};

/// Result of ModelStore::nearest: the closest published snapshot of the
/// wanted collective and its (topology, scale) distance.
struct NearestMatch {
  std::shared_ptr<const ModelSnapshot> snapshot;  ///< nullptr: nothing in range
  double distance = 0.0;
};

/// The transfer metric of ModelStore::nearest. Same collective only (the
/// caller filters); |log2 comm_size delta| between two concrete scales, +0.5
/// for a wildcard (comm_size 0) candidate against a concrete query (a
/// job-level grid model transfers, but less sharply than a same-scale one),
/// +16 when the topology signatures differ (cross-machine transfer is a last
/// resort, only taken when the caller's max_distance allows it).
double model_key_distance(const ModelKey& want, const ModelKey& have);

class ModelStore {
 public:
  ModelStore() = default;
  ModelStore(const ModelStore&) = delete;
  ModelStore& operator=(const ModelStore&) = delete;

  /// Publishes a trained model under `key`, replacing any previous snapshot
  /// for the key. Returns the new snapshot's store-wide version. Under
  /// concurrent publishes to one key the highest version wins — the visible
  /// snapshot's version never moves backwards. Throws InvalidArgument if the
  /// model is untrained or its collective does not match the key. `support`
  /// optionally attaches the model's training points for warm-start transfer
  /// (see ModelSnapshot::support).
  std::uint64_t publish(const ModelKey& key, core::CollectiveModel model,
                        std::shared_ptr<const std::vector<core::LabeledPoint>> support = nullptr);

  /// The current snapshot for `key`, or nullptr if never published.
  std::shared_ptr<const ModelSnapshot> lookup(const ModelKey& key) const;

  /// lookup() with the wildcard-scale fallback: exact (collective,
  /// comm_size, topology) first, then (collective, 0, topology).
  std::shared_ptr<const ModelSnapshot> resolve(const ModelKey& key) const;

  /// The published snapshot of `key.collective` nearest to `key` under
  /// model_key_distance, or an empty match when none is within
  /// `max_distance` (inclusive). Ties break toward the smaller ModelKey, so
  /// the answer is deterministic for a given store content. This is the
  /// fleet warm-start query: "which previously tuned job looks most like
  /// mine?" — a full key scan, not a hot serving path.
  NearestMatch nearest(const ModelKey& key, double max_distance) const;

  /// Number of published keys.
  std::size_t size() const;

  /// All published keys, sorted (deterministic for stats/debug output).
  std::vector<ModelKey> keys() const;

 private:
  mutable std::shared_mutex mu_;  ///< guards `snapshots_`
  std::map<ModelKey, std::shared_ptr<const ModelSnapshot>> snapshots_;
  std::atomic<std::uint64_t> next_version_{1};
};

}  // namespace acclaim::serve
