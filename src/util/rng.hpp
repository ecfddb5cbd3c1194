// Deterministic, splittable pseudo-random number generation.
//
// All stochastic components in the reproduction (network jitter, measurement
// noise, bootstrap sampling, random acquisition baselines) draw from Rng so
// experiments are reproducible from a single seed. The generator is
// xoshiro256** seeded via splitmix64, the standard pairing recommended by the
// xoshiro authors.
#pragma once

#include <cstdint>
#include <vector>

namespace acclaim::util {

/// xoshiro256** PRNG. Cheap to copy; `split()` derives an independent stream
/// so parallel components never share a sequence.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (no cached spare: keeps state trivially
  /// copyable and streams reproducible after split()).
  double normal();

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev);

  /// Log-normal such that the *median* of the distribution is `median` and
  /// the underlying normal has standard deviation `sigma_log`.
  double lognormal_median(double median, double sigma_log);

  /// Bernoulli trial.
  bool chance(double p);

  /// Uniformly pick an index in [0, n). Requires n > 0.
  std::size_t index(std::size_t n);

  /// Derive an independent generator (jump-free splitting via splitmix).
  Rng split();

  /// Counter-based stream derivation: an independent generator for stream
  /// index `stream` under `seed`. Unlike split(), which advances the parent
  /// and therefore depends on call order, stream(seed, i) is a pure function
  /// of its arguments — the i-th tree/candidate of a parallel sweep sees the
  /// same sequence no matter which thread reaches it first.
  static Rng stream(std::uint64_t seed, std::uint64_t stream);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = index(i);
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Sample k distinct indices from [0, n) without replacement.
  std::vector<std::size_t> sample_without_replacement(std::size_t n, std::size_t k);

 private:
  std::uint64_t s_[4];
};

/// True if v is a power of two (v > 0).
constexpr bool is_power_of_two(std::uint64_t v) { return v != 0 && (v & (v - 1)) == 0; }

/// Largest power of two <= v. Requires v >= 1.
std::uint64_t floor_power_of_two(std::uint64_t v);

/// Smallest power of two >= v. Requires v >= 1.
std::uint64_t ceil_power_of_two(std::uint64_t v);

/// The doubling axis first, 2·first, 4·first, ... up to `last` (empty when
/// first > last). It stops where the next doubling would pass `last`, so it
/// never wraps and holds at most 64 values. Requires first >= 1.
std::vector<std::uint64_t> doublings(std::uint64_t first, std::uint64_t last);

}  // namespace acclaim::util
