#include "serve/model_store.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <utility>

#include "util/error.hpp"

namespace acclaim::serve {

std::string ModelKey::to_string() const {
  return std::string(coll::collective_name(collective)) + "/" +
         (comm_size == 0 ? std::string("any") : std::to_string(comm_size)) + "/" + topology;
}

namespace {

/// FNV-1a over the key fields; only used to spread keys across shards, so it
/// needs to be deterministic and cheap, not cryptographic.
std::size_t key_hash(const ModelKey& key) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  mix(static_cast<std::uint64_t>(key.collective));
  mix(static_cast<std::uint64_t>(key.comm_size));
  for (char c : key.topology) {
    mix(static_cast<unsigned char>(c));
  }
  return static_cast<std::size_t>(h);
}

int clamp_shards(int shards) {
  shards = std::clamp(shards, 1, 256);
  int p2 = 1;
  while (p2 < shards) {
    p2 <<= 1;
  }
  return p2;
}

}  // namespace

ModelStore::ModelStore(int shards) : shards_(static_cast<std::size_t>(clamp_shards(shards))) {}

ModelStore::Shard& ModelStore::shard_for(const ModelKey& key) const {
  return shards_[key_hash(key) & (shards_.size() - 1)];
}

double model_key_distance(const ModelKey& want, const ModelKey& have) {
  double d = 0.0;
  if (want.topology != have.topology) {
    d += 16.0;
  }
  if (want.comm_size > 0 && have.comm_size > 0) {
    d += std::abs(std::log2(static_cast<double>(want.comm_size)) -
                  std::log2(static_cast<double>(have.comm_size)));
  } else if (want.comm_size != have.comm_size) {
    // Exactly one side is the wildcard scale.
    d += 0.5;
  }
  return d;
}

std::uint64_t ModelStore::publish(const ModelKey& key, core::CollectiveModel model,
                                  std::shared_ptr<const std::vector<core::LabeledPoint>> support) {
  require(model.trained(), "ModelStore::publish requires a trained model");
  require(model.collective() == key.collective,
          "ModelStore::publish: model collective does not match the key");
  auto snap = std::make_shared<const ModelSnapshot>(ModelSnapshot{
      key, next_version_.fetch_add(1, std::memory_order_relaxed), std::move(model),
      std::move(support)});
  const std::uint64_t version = snap->version;
  Shard& shard = shard_for(key);
  std::shared_ptr<const ModelSnapshot> replaced;  // released after the unlock
  {
    std::unique_lock lock(shard.mu);
    std::shared_ptr<const ModelSnapshot>& cur = shard.snapshots[key];
    // Install only if newer: two publishers racing on one key can get here
    // out of version order, and the older snapshot must never end up
    // visible after the newer one was stored.
    if (cur == nullptr || cur->version < version) {
      replaced = std::exchange(cur, std::move(snap));
    }
  }
  return version;
}

std::shared_ptr<const ModelSnapshot> ModelStore::lookup(const ModelKey& key) const {
  const Shard& shard = shard_for(key);
  std::shared_lock lock(shard.mu);
  const auto it = shard.snapshots.find(key);
  return it == shard.snapshots.end() ? nullptr : it->second;
}

std::shared_ptr<const ModelSnapshot> ModelStore::resolve(const ModelKey& key) const {
  if (auto snap = lookup(key)) {
    return snap;
  }
  if (key.comm_size != 0) {
    return lookup(ModelKey{key.collective, 0, key.topology});
  }
  return nullptr;
}

NearestMatch ModelStore::nearest(const ModelKey& key, double max_distance) const {
  // keys() is sorted, so scanning in order and keeping strictly-better
  // matches breaks distance ties toward the smaller key deterministically.
  NearestMatch best;
  for (const ModelKey& cand : keys()) {
    if (cand.collective != key.collective) {
      continue;
    }
    const double d = model_key_distance(key, cand);
    if (d > max_distance || (best.snapshot != nullptr && d >= best.distance)) {
      continue;
    }
    // A key can race with a republish between keys() and lookup(); a newer
    // snapshot under the same key is equally valid as a transfer donor.
    if (auto snap = lookup(cand)) {
      best.snapshot = std::move(snap);
      best.distance = d;
    }
  }
  return best;
}

std::size_t ModelStore::size() const {
  std::size_t n = 0;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    n += shard.snapshots.size();
  }
  return n;
}

std::vector<ModelKey> ModelStore::keys() const {
  std::vector<ModelKey> out;
  for (const Shard& shard : shards_) {
    std::shared_lock lock(shard.mu);
    for (const auto& [key, snap] : shard.snapshots) {
      out.push_back(key);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace acclaim::serve
