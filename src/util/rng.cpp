#include "util/rng.hpp"

#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace acclaim::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) {
    s = splitmix64(sm);
  }
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  require(lo <= hi, "Rng::uniform_int requires lo <= hi");
  const std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next_u64());
  }
  // Rejection sampling to remove modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % span);
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return lo + static_cast<std::int64_t>(v % span);
}

double Rng::normal() {
  // Box-Muller; guard against log(0).
  double u1 = uniform();
  while (u1 <= 0.0) {
    u1 = uniform();
  }
  const double u2 = uniform();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::lognormal_median(double median, double sigma_log) {
  return median * std::exp(sigma_log * normal());
}

bool Rng::chance(double p) { return uniform() < p; }

std::size_t Rng::index(std::size_t n) {
  require(n > 0, "Rng::index requires n > 0");
  return static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

Rng Rng::split() { return Rng(next_u64()); }

Rng Rng::stream(std::uint64_t seed, std::uint64_t stream) {
  // Two dependent splitmix passes decorrelate (seed, stream) pairs; the
  // result seeds the usual splitmix->xoshiro expansion in the constructor.
  std::uint64_t x = seed;
  std::uint64_t mixed = splitmix64(x);
  x ^= stream * 0x94d049bb133111ebULL + 0x9e3779b97f4a7c15ULL;
  mixed ^= splitmix64(x);
  return Rng(mixed);
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n, std::size_t k) {
  require(k <= n, "sample_without_replacement requires k <= n");
  std::vector<std::size_t> pool(n);
  for (std::size_t i = 0; i < n; ++i) {
    pool[i] = i;
  }
  // Partial Fisher-Yates: only the first k slots need to be finalized.
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + index(n - i);
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

std::uint64_t floor_power_of_two(std::uint64_t v) {
  require(v >= 1, "floor_power_of_two requires v >= 1");
  std::uint64_t p = 1;
  while (p * 2 <= v && p * 2 != 0) {
    p *= 2;
  }
  return p;
}

std::uint64_t ceil_power_of_two(std::uint64_t v) {
  require(v >= 1, "ceil_power_of_two requires v >= 1");
  std::uint64_t p = 1;
  while (p < v) {
    p *= 2;
  }
  return p;
}

std::vector<std::uint64_t> doublings(std::uint64_t first, std::uint64_t last) {
  require(first >= 1, "a doubling axis must start at 1 or more");
  std::vector<std::uint64_t> out;
  for (std::uint64_t v = first; v <= last; v *= 2) {
    out.push_back(v);
    if (v > last / 2) {
      break;  // 2v would pass `last` (or wrap)
    }
  }
  return out;
}

}  // namespace acclaim::util
