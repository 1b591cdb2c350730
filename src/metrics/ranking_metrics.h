// Evaluation metrics used in the paper's experiments:
//   * MAE  — mean absolute error of predicted vs ground-truth scores;
//   * MARE — mean absolute relative error, sum|err| / sum|truth|;
//   * Kendall rank correlation coefficient tau (tie-aware tau-b);
//   * Spearman's rank correlation coefficient rho (tie-aware, computed on
//     fractional ranks).
// Plus auxiliary ranking measures (top-1 accuracy, NDCG).
#pragma once

#include <span>
#include <vector>

namespace pathrank::metrics {

/// Kendall tau-b in [-1, 1]; tie-corrected. Returns 0 when either input is
/// constant (no ranking information).
double KendallTau(std::span<const double> a, std::span<const double> b);

/// Spearman rho in [-1, 1], computed as the Pearson correlation of
/// fractional ranks (handles ties). Returns 0 when either input is constant.
double SpearmanRho(std::span<const double> a, std::span<const double> b);

/// 1.0 when the argmax of `predicted` coincides with the argmax of `truth`
/// (ties broken towards agreement), else 0.0.
double TopOneAccuracy(std::span<const double> predicted,
                      std::span<const double> truth);

/// Normalised discounted cumulative gain over the full list, with gains
/// equal to the ground-truth scores.
double Ndcg(std::span<const double> predicted, std::span<const double> truth);

/// Fractional ranks (average rank for ties), 1-based. Exposed for testing.
std::vector<double> FractionalRanks(std::span<const double> values);

/// Accumulates per-query metric values and reports means. The paper
/// computes MAE/MARE over all candidate paths and rank correlations per
/// candidate set; this helper mirrors that protocol.
class MetricAccumulator {
 public:
  /// Adds one query's predicted/truth score lists.
  void AddQuery(std::span<const double> predicted,
                std::span<const double> truth);

  /// Mean absolute error over every candidate added.
  double mae() const;
  /// Mean absolute relative error as defined in the PathRank evaluation:
  /// sum_i |p_i - t_i| / sum_i |t_i| over every candidate added.
  double mare() const;
  double mean_kendall_tau() const;
  double mean_spearman_rho() const;
  double mean_top1() const;
  double mean_ndcg() const;
  size_t num_queries() const { return num_queries_; }

 private:
  double abs_err_sum_ = 0.0;
  double abs_truth_sum_ = 0.0;
  size_t num_points_ = 0;
  double tau_sum_ = 0.0;
  double rho_sum_ = 0.0;
  double top1_sum_ = 0.0;
  double ndcg_sum_ = 0.0;
  size_t num_queries_ = 0;
};

}  // namespace pathrank::metrics
