#include "ml/metrics.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace acclaim::ml {

namespace {
void check(const std::vector<double>& truth, const std::vector<double>& pred) {
  acclaim::require(!truth.empty() && truth.size() == pred.size(),
                   "metrics require equal, non-zero lengths");
}
}  // namespace

double mae(const std::vector<double>& truth, const std::vector<double>& pred) {
  check(truth, pred);
  double s = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    s += std::abs(truth[i] - pred[i]);
  }
  return s / static_cast<double>(truth.size());
}

double rmse(const std::vector<double>& truth, const std::vector<double>& pred) {
  check(truth, pred);
  double s = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    s += (truth[i] - pred[i]) * (truth[i] - pred[i]);
  }
  return std::sqrt(s / static_cast<double>(truth.size()));
}

double r2(const std::vector<double>& truth, const std::vector<double>& pred) {
  check(truth, pred);
  const double m = util::mean(truth);
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    ss_res += (truth[i] - pred[i]) * (truth[i] - pred[i]);
    ss_tot += (truth[i] - m) * (truth[i] - m);
  }
  // Exact zero is the degenerate constant-target case, not a tolerance
  // question.
  if (ss_tot == 0.0) {
    return ss_res == 0.0 ? 1.0 : 0.0;
  }
  return 1.0 - ss_res / ss_tot;
}

}  // namespace acclaim::ml
