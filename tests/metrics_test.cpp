// Ranking metrics: MAE/MARE, Kendall tau-b, Spearman rho, NDCG, top-1 and
// the per-query accumulator, validated against closed-form references.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "common/rng.h"
#include "metrics/ranking_metrics.h"

namespace pathrank::metrics {
namespace {

// MAE and MARE are read off the accumulator, as every paper table prints
// them.
MetricAccumulator OneQuery(const std::vector<double>& predicted,
                           const std::vector<double>& truth) {
  MetricAccumulator acc;
  acc.AddQuery(predicted, truth);
  return acc;
}

TEST(Mae, ZeroForPerfectPredictions) {
  const std::vector<double> t{0.1, 0.5, 0.9};
  EXPECT_DOUBLE_EQ(OneQuery(t, t).mae(), 0.0);
}

TEST(Mae, KnownValue) {
  const std::vector<double> p{0.0, 1.0};
  const std::vector<double> t{0.5, 0.5};
  EXPECT_DOUBLE_EQ(OneQuery(p, t).mae(), 0.5);
}

TEST(Mare, NormalisesByTruthMagnitude) {
  const std::vector<double> p{1.1, 2.2};
  const std::vector<double> t{1.0, 2.0};
  // |0.1| + |0.2| over |1| + |2|.
  EXPECT_NEAR(OneQuery(p, t).mare(), 0.1, 1e-12);
}

TEST(Mare, ZeroTruthGivesZero) {
  const std::vector<double> p{0.5};
  const std::vector<double> t{0.0};
  EXPECT_DOUBLE_EQ(OneQuery(p, t).mare(), 0.0);
}

TEST(KendallTau, PerfectAgreement) {
  const std::vector<double> a{1, 2, 3, 4, 5};
  const std::vector<double> b{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(KendallTau(a, b), 1.0);
}

TEST(KendallTau, PerfectDisagreement) {
  const std::vector<double> a{1, 2, 3, 4};
  const std::vector<double> b{4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(KendallTau(a, b), -1.0);
}

TEST(KendallTau, KnownMixedCase) {
  // Classic example: one discordant pair among n=3 -> tau = 1/3.
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{1, 3, 2};
  EXPECT_NEAR(KendallTau(a, b), 1.0 / 3.0, 1e-12);
}

TEST(KendallTau, ConstantInputGivesZero) {
  const std::vector<double> a{1, 1, 1};
  const std::vector<double> b{1, 2, 3};
  EXPECT_DOUBLE_EQ(KendallTau(a, b), 0.0);
}

TEST(KendallTau, TauBHandlesTies) {
  // With ties in one list, |tau-b| stays <= 1 and uses the tie correction.
  const std::vector<double> a{1, 1, 2, 3};
  const std::vector<double> b{1, 2, 3, 4};
  const double tau = KendallTau(a, b);
  EXPECT_GT(tau, 0.0);
  EXPECT_LE(tau, 1.0);
  // concordant=5, discordant=0, ties_a=1: tau_b = 5/sqrt(6*5).
  EXPECT_NEAR(tau, 5.0 / std::sqrt(30.0), 1e-12);
}

TEST(FractionalRanks, AveragesTies) {
  const std::vector<double> v{10.0, 20.0, 20.0, 30.0};
  const auto r = FractionalRanks(v);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(SpearmanRho, PerfectMonotone) {
  const std::vector<double> a{1, 2, 3, 4};
  const std::vector<double> b{2, 4, 8, 16};  // nonlinear but monotone
  EXPECT_DOUBLE_EQ(SpearmanRho(a, b), 1.0);
}

TEST(SpearmanRho, PerfectReversal) {
  const std::vector<double> a{1, 2, 3, 4};
  const std::vector<double> b{4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(SpearmanRho(a, b), -1.0);
}

TEST(SpearmanRho, MatchesClassicFormulaWithoutTies) {
  // Without ties, rho = 1 - 6*sum(d^2)/(n(n^2-1)).
  const std::vector<double> a{1, 2, 3, 4, 5};
  const std::vector<double> b{3, 1, 4, 2, 5};
  const auto ra = FractionalRanks(a);
  const auto rb = FractionalRanks(b);
  double d2 = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    d2 += (ra[i] - rb[i]) * (ra[i] - rb[i]);
  }
  const double classic = 1.0 - 6.0 * d2 / (5.0 * 24.0);
  EXPECT_NEAR(SpearmanRho(a, b), classic, 1e-12);
}

TEST(SpearmanRho, ConstantInputGivesZero) {
  const std::vector<double> a{2, 2, 2};
  const std::vector<double> b{1, 2, 3};
  EXPECT_DOUBLE_EQ(SpearmanRho(a, b), 0.0);
}

class CorrelationProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CorrelationProperty, BothInRangeAndSignConsistent) {
  pathrank::Rng rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const size_t n = 2 + rng.NextBounded(15);
    std::vector<double> a(n);
    std::vector<double> b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.NextDouble();
      b[i] = rng.NextDouble();
    }
    const double tau = KendallTau(a, b);
    const double rho = SpearmanRho(a, b);
    EXPECT_GE(tau, -1.0 - 1e-12);
    EXPECT_LE(tau, 1.0 + 1e-12);
    EXPECT_GE(rho, -1.0 - 1e-12);
    EXPECT_LE(rho, 1.0 + 1e-12);
  }
}

TEST_P(CorrelationProperty, InvariantUnderMonotoneTransform) {
  pathrank::Rng rng(GetParam() + 500);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 3 + rng.NextBounded(10);
    std::vector<double> a(n);
    std::vector<double> b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.NextDouble();
      b[i] = rng.NextDouble();
    }
    std::vector<double> a_scaled(n);
    for (size_t i = 0; i < n; ++i) a_scaled[i] = std::exp(3.0 * a[i]) + 7.0;
    EXPECT_NEAR(KendallTau(a, b), KendallTau(a_scaled, b), 1e-12);
    EXPECT_NEAR(SpearmanRho(a, b), SpearmanRho(a_scaled, b), 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CorrelationProperty,
                         ::testing::Values(1, 2, 3, 4));

TEST(TopOne, AgreesAndDisagrees) {
  const std::vector<double> truth{0.2, 0.9, 0.5};
  const std::vector<double> good{0.1, 0.8, 0.3};
  const std::vector<double> bad{0.9, 0.1, 0.3};
  EXPECT_DOUBLE_EQ(TopOneAccuracy(good, truth), 1.0);
  EXPECT_DOUBLE_EQ(TopOneAccuracy(bad, truth), 0.0);
}

TEST(Ndcg, PerfectOrderIsOne) {
  const std::vector<double> truth{0.9, 0.5, 0.1};
  EXPECT_NEAR(Ndcg(truth, truth), 1.0, 1e-12);
}

TEST(Ndcg, WorseOrderScoresLess) {
  const std::vector<double> truth{0.9, 0.5, 0.1};
  const std::vector<double> reversed{0.1, 0.5, 0.9};
  EXPECT_LT(Ndcg(reversed, truth), 1.0);
  EXPECT_GT(Ndcg(reversed, truth), 0.0);
}

TEST(Accumulator, AggregatesAcrossQueries) {
  MetricAccumulator acc;
  const std::vector<double> t1{0.2, 0.8};
  const std::vector<double> p1{0.2, 0.8};  // perfect
  const std::vector<double> t2{0.1, 0.9};
  const std::vector<double> p2{0.9, 0.1};  // reversed
  acc.AddQuery(p1, t1);
  acc.AddQuery(p2, t2);
  EXPECT_EQ(acc.num_queries(), 2u);
  EXPECT_NEAR(acc.mean_kendall_tau(), 0.0, 1e-12);  // +1 and -1 average
  EXPECT_GT(acc.mae(), 0.0);
  // MAE across all 4 points: (0 + 0 + 0.8 + 0.8) / 4.
  EXPECT_NEAR(acc.mae(), 0.4, 1e-12);
  // MARE: 1.6 / (0.2+0.8+0.1+0.9).
  EXPECT_NEAR(acc.mare(), 0.8, 1e-12);
}

}  // namespace
}  // namespace pathrank::metrics
