#include "serve/model_store.hpp"

#include <cmath>
#include <mutex>
#include <utility>

#include "util/error.hpp"

namespace acclaim::serve {

std::string ModelKey::to_string() const {
  return std::string(coll::collective_name(collective)) + "/" +
         (comm_size == 0 ? std::string("any") : std::to_string(comm_size)) + "/" + topology;
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
  std::shared_ptr<const ModelSnapshot> replaced;  // released after the unlock
  {
    std::unique_lock lock(mu_);
    std::shared_ptr<const ModelSnapshot>& cur = snapshots_[key];
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
  std::shared_lock lock(mu_);
  const auto it = snapshots_.find(key);
  return it == snapshots_.end() ? nullptr : it->second;
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
  // The map is ordered, so keeping only strictly better matches breaks
  // distance ties toward the smaller key deterministically.
  NearestMatch best;
  std::shared_lock lock(mu_);
  for (const auto& [cand, snap] : snapshots_) {
    if (cand.collective != key.collective) {
      continue;
    }
    const double d = model_key_distance(key, cand);
    if (d <= max_distance && (best.snapshot == nullptr || d < best.distance)) {
      best.snapshot = snap;
      best.distance = d;
    }
  }
  return best;
}

std::size_t ModelStore::size() const {
  std::shared_lock lock(mu_);
  return snapshots_.size();
}

std::vector<ModelKey> ModelStore::keys() const {
  std::shared_lock lock(mu_);
  std::vector<ModelKey> out;
  out.reserve(snapshots_.size());
  for (const auto& [key, snap] : snapshots_) {
    out.push_back(key);
  }
  return out;
}

}  // namespace acclaim::serve
