#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace acclaim::util {

void RunningStat::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStat::variance() const noexcept {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStat::stddev() const noexcept { return std::sqrt(variance()); }

double mean(const std::vector<double>& v) {
  if (v.empty()) {
    return 0.0;
  }
  double s = 0.0;
  for (double x : v) {
    s += x;
  }
  return s / static_cast<double>(v.size());
}

double variance(const std::vector<double>& v) {
  if (v.size() < 2) {
    return 0.0;
  }
  const double m = mean(v);
  double s = 0.0;
  for (double x : v) {
    s += (x - m) * (x - m);
  }
  return s / static_cast<double>(v.size() - 1);
}

double stddev(const std::vector<double>& v) { return std::sqrt(variance(v)); }

double geomean(const std::vector<double>& v) {
  if (v.empty()) {
    return 0.0;
  }
  double s = 0.0;
  for (double x : v) {
    require(x > 0.0, "geomean requires strictly positive values");
    s += std::log(x);
  }
  return std::exp(s / static_cast<double>(v.size()));
}

double percentile(std::vector<double> v, double p) {
  require(!v.empty(), "percentile requires a non-empty vector");
  require(p >= 0.0 && p <= 100.0, "percentile requires p in [0, 100]");
  std::sort(v.begin(), v.end());
  if (v.size() == 1) {
    return v[0];
  }
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

namespace {
std::vector<double> average_ranks(const std::vector<double>& v) {
  std::vector<std::size_t> order(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    order[i] = i;
  }
  std::sort(order.begin(), order.end(),
            [&](std::size_t x, std::size_t y) { return v[x] < v[y]; });
  std::vector<double> ranks(v.size(), 0.0);
  std::size_t i = 0;
  while (i < order.size()) {
    std::size_t j = i;
    while (j + 1 < order.size() && v[order[j + 1]] == v[order[i]]) {
      ++j;
    }
    const double avg = 0.5 * (static_cast<double>(i) + static_cast<double>(j)) + 1.0;
    for (std::size_t k = i; k <= j; ++k) {
      ranks[order[k]] = avg;
    }
    i = j + 1;
  }
  return ranks;
}
}  // namespace

double spearman(const std::vector<double>& a, const std::vector<double>& b) {
  require(a.size() == b.size(), "spearman requires equal-length series");
  if (a.size() < 2) {
    return 0.0;
  }
  return pearson(average_ranks(a), average_ranks(b));
}

double pearson(const std::vector<double>& a, const std::vector<double>& b) {
  require(a.size() == b.size(), "pearson requires equal-length series");
  if (a.size() < 2) {
    return 0.0;
  }
  const double ma = mean(a);
  const double mb = mean(b);
  double num = 0.0;
  double da = 0.0;
  double db = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    num += (a[i] - ma) * (b[i] - mb);
    da += (a[i] - ma) * (a[i] - ma);
    db += (b[i] - mb) * (b[i] - mb);
  }
  // Exact zero variance means correlation is undefined; a tolerance would
  // misclassify near-constant series.
  if (da == 0.0 || db == 0.0) {
    return 0.0;
  }
  return num / std::sqrt(da * db);
}

}  // namespace acclaim::util
