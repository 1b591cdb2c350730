#include "metrics/ranking_metrics.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace pathrank::metrics {

double KendallTau(std::span<const double> a, std::span<const double> b) {
  PR_CHECK(a.size() == b.size());
  const size_t n = a.size();
  if (n < 2) return 0.0;
  // O(n^2) tau-b; candidate sets are small (k <= ~20) so this is exact and
  // fast enough everywhere it is used.
  long long concordant = 0;
  long long discordant = 0;
  long long ties_a = 0;
  long long ties_b = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double da = a[i] - a[j];
      const double db = b[i] - b[j];
      if (da == 0.0 && db == 0.0) {
        // tied in both: contributes to neither
      } else if (da == 0.0) {
        ++ties_a;
      } else if (db == 0.0) {
        ++ties_b;
      } else if ((da > 0.0) == (db > 0.0)) {
        ++concordant;
      } else {
        ++discordant;
      }
    }
  }
  const double n0 = concordant + discordant;
  const double denom = std::sqrt((n0 + ties_a) * (n0 + ties_b));
  if (denom == 0.0) return 0.0;
  return (static_cast<double>(concordant) - static_cast<double>(discordant)) /
         denom;
}

std::vector<double> FractionalRanks(std::span<const double> values) {
  const size_t n = values.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(),
            [&](size_t i, size_t j) { return values[i] < values[j]; });
  std::vector<double> ranks(n, 0.0);
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j + 1 < n && values[order[j + 1]] == values[order[i]]) ++j;
    // Average the 1-based ranks i+1 .. j+1 across the tie group.
    const double avg = 0.5 * static_cast<double>(i + 1 + j + 1);
    for (size_t t = i; t <= j; ++t) ranks[order[t]] = avg;
    i = j + 1;
  }
  return ranks;
}

double SpearmanRho(std::span<const double> a, std::span<const double> b) {
  PR_CHECK(a.size() == b.size());
  const size_t n = a.size();
  if (n < 2) return 0.0;
  const auto ra = FractionalRanks(a);
  const auto rb = FractionalRanks(b);
  double mean_a = 0.0;
  double mean_b = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mean_a += ra[i];
    mean_b += rb[i];
  }
  mean_a /= static_cast<double>(n);
  mean_b /= static_cast<double>(n);
  double cov = 0.0;
  double var_a = 0.0;
  double var_b = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double da = ra[i] - mean_a;
    const double db = rb[i] - mean_b;
    cov += da * db;
    var_a += da * da;
    var_b += db * db;
  }
  if (var_a == 0.0 || var_b == 0.0) return 0.0;
  return cov / std::sqrt(var_a * var_b);
}

double TopOneAccuracy(std::span<const double> predicted,
                      std::span<const double> truth) {
  PR_CHECK(predicted.size() == truth.size() && !predicted.empty());
  const size_t arg_pred = static_cast<size_t>(
      std::max_element(predicted.begin(), predicted.end()) -
      predicted.begin());
  const double best_truth = *std::max_element(truth.begin(), truth.end());
  return truth[arg_pred] == best_truth ? 1.0 : 0.0;
}

double Ndcg(std::span<const double> predicted,
            std::span<const double> truth) {
  PR_CHECK(predicted.size() == truth.size() && !predicted.empty());
  const size_t n = predicted.size();
  std::vector<size_t> by_pred(n);
  std::iota(by_pred.begin(), by_pred.end(), size_t{0});
  std::sort(by_pred.begin(), by_pred.end(),
            [&](size_t i, size_t j) { return predicted[i] > predicted[j]; });
  std::vector<double> sorted_truth(truth.begin(), truth.end());
  std::sort(sorted_truth.begin(), sorted_truth.end(), std::greater<>());
  double dcg = 0.0;
  double idcg = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double discount = 1.0 / std::log2(static_cast<double>(i) + 2.0);
    dcg += truth[by_pred[i]] * discount;
    idcg += sorted_truth[i] * discount;
  }
  return idcg > 0.0 ? dcg / idcg : 0.0;
}

void MetricAccumulator::AddQuery(std::span<const double> predicted,
                                 std::span<const double> truth) {
  PR_CHECK(predicted.size() == truth.size() && !predicted.empty());
  for (size_t i = 0; i < predicted.size(); ++i) {
    abs_err_sum_ += std::abs(predicted[i] - truth[i]);
    abs_truth_sum_ += std::abs(truth[i]);
  }
  num_points_ += predicted.size();
  tau_sum_ += KendallTau(predicted, truth);
  rho_sum_ += SpearmanRho(predicted, truth);
  top1_sum_ += TopOneAccuracy(predicted, truth);
  ndcg_sum_ += Ndcg(predicted, truth);
  ++num_queries_;
}

double MetricAccumulator::mae() const {
  return num_points_ > 0 ? abs_err_sum_ / static_cast<double>(num_points_)
                         : 0.0;
}

double MetricAccumulator::mare() const {
  return abs_truth_sum_ > 0.0 ? abs_err_sum_ / abs_truth_sum_ : 0.0;
}

double MetricAccumulator::mean_kendall_tau() const {
  return num_queries_ > 0 ? tau_sum_ / static_cast<double>(num_queries_)
                          : 0.0;
}

double MetricAccumulator::mean_spearman_rho() const {
  return num_queries_ > 0 ? rho_sum_ / static_cast<double>(num_queries_)
                          : 0.0;
}

double MetricAccumulator::mean_top1() const {
  return num_queries_ > 0 ? top1_sum_ / static_cast<double>(num_queries_)
                          : 0.0;
}

double MetricAccumulator::mean_ndcg() const {
  return num_queries_ > 0 ? ndcg_sum_ / static_cast<double>(num_queries_)
                          : 0.0;
}

}  // namespace pathrank::metrics
