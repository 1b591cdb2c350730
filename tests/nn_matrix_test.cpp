// Matrix kernels: GEMM variants against a naive reference over randomised
// shapes, element-wise helpers and initialisers.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/rng.h"
#include "nn/matrix.h"

namespace pathrank::nn {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, pathrank::Rng& rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.NextUniform(-1.0, 1.0));
  }
  return m;
}

/// Naive triple loop C = alpha * A * B (+ beta * C), reference semantics.
Matrix NaiveGemm(const Matrix& a, const Matrix& b, float alpha) {
  Matrix c(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      float sum = 0.0f;
      for (size_t k = 0; k < a.cols(); ++k) {
        sum += a.at(i, k) * b.at(k, j);
      }
      c.at(i, j) = alpha * sum;
    }
  }
  return c;
}

Matrix Transpose(const Matrix& m) {
  Matrix t(m.cols(), m.rows());
  for (size_t i = 0; i < m.rows(); ++i) {
    for (size_t j = 0; j < m.cols(); ++j) {
      t.at(j, i) = m.at(i, j);
    }
  }
  return t;
}

void ExpectNear(const Matrix& a, const Matrix& b, float tol) {
  ASSERT_TRUE(a.SameShape(b));
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a.data()[i], b.data()[i], tol) << "at flat index " << i;
  }
}

using GemmShape = std::tuple<int, int, int>;

class GemmProperty : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmProperty, NNMatchesNaive) {
  const auto [m, k, n] = GetParam();
  pathrank::Rng rng(static_cast<uint64_t>(m * 73 + k * 7 + n));
  const Matrix a = RandomMatrix(m, k, rng);
  const Matrix b = RandomMatrix(k, n, rng);
  Matrix c(m, n);
  GemmNN(a, b, &c);
  ExpectNear(c, NaiveGemm(a, b, 1.0f), 1e-4f);
}

TEST_P(GemmProperty, NTMatchesNaive) {
  const auto [m, k, n] = GetParam();
  pathrank::Rng rng(static_cast<uint64_t>(m * 31 + k * 17 + n));
  const Matrix a = RandomMatrix(m, k, rng);
  const Matrix bt = RandomMatrix(n, k, rng);  // stored transposed
  Matrix c(m, n);
  GemmNT(a, bt, &c);
  ExpectNear(c, NaiveGemm(a, Transpose(bt), 1.0f), 1e-4f);
}

TEST_P(GemmProperty, TNMatchesNaive) {
  const auto [m, k, n] = GetParam();
  pathrank::Rng rng(static_cast<uint64_t>(m * 3 + k * 11 + n));
  const Matrix at = RandomMatrix(m, k, rng);  // logical A = at^T [k x m]
  const Matrix b = RandomMatrix(m, n, rng);
  Matrix c(k, n);
  GemmTN(at, b, &c);
  ExpectNear(c, NaiveGemm(Transpose(at), b, 1.0f), 1e-4f);
}

TEST_P(GemmProperty, BetaOneAccumulates) {
  const auto [m, k, n] = GetParam();
  pathrank::Rng rng(static_cast<uint64_t>(m + k + n));
  const Matrix a = RandomMatrix(m, k, rng);
  const Matrix b = RandomMatrix(k, n, rng);
  Matrix c = RandomMatrix(m, n, rng);
  Matrix expected = c;
  expected.Add(NaiveGemm(a, b, 1.0f));
  GemmNN(a, b, &c, 1.0f, 1.0f);
  ExpectNear(c, expected, 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmProperty,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{2, 3, 4},
                      GemmShape{5, 1, 7}, GemmShape{8, 16, 8},
                      GemmShape{13, 7, 3}, GemmShape{32, 64, 32}));

TEST(Matrix, ShapeAndFill) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  m.Fill(2.5f);
  for (size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 2.5f);
  m.Zero();
  EXPECT_DOUBLE_EQ(m.SquaredNorm(), 0.0);
}

TEST(Matrix, AddScale) {
  Matrix a(2, 2);
  Matrix b(2, 2);
  a.Fill(1.0f);
  b.Fill(2.0f);
  a.Add(b);
  EXPECT_EQ(a.at(0, 0), 3.0f);
  a.Scale(0.25f);
  EXPECT_EQ(a.at(0, 1), 0.75f);
}

TEST(Matrix, AddRejectsShapeMismatch) {
  Matrix a(2, 2);
  Matrix b(2, 3);
  EXPECT_THROW(a.Add(b), std::logic_error);
}

TEST(Matrix, RowBroadcast) {
  Matrix y(2, 3);
  y.Fill(1.0f);
  Matrix bias(1, 3);
  bias.at(0, 0) = 1.0f;
  bias.at(0, 1) = 2.0f;
  bias.at(0, 2) = 3.0f;
  AddRowBroadcast(bias, &y);
  EXPECT_EQ(y.at(0, 0), 2.0f);
  EXPECT_EQ(y.at(1, 2), 4.0f);
}

TEST(Matrix, HadamardProduct) {
  Matrix a(1, 3);
  Matrix b(1, 3);
  for (int i = 0; i < 3; ++i) {
    a.at(0, i) = static_cast<float>(i + 1);
    b.at(0, i) = 2.0f;
  }
  Matrix out;
  Hadamard(a, b, &out);
  EXPECT_EQ(out.at(0, 2), 6.0f);
}

TEST(Matrix, SigmoidAndTanh) {
  Matrix m(1, 3);
  m.at(0, 0) = 0.0f;
  m.at(0, 1) = 100.0f;
  m.at(0, 2) = -100.0f;
  Matrix s = m;
  SigmoidInPlace(&s);
  EXPECT_NEAR(s.at(0, 0), 0.5f, 1e-6f);
  EXPECT_NEAR(s.at(0, 1), 1.0f, 1e-6f);
  EXPECT_NEAR(s.at(0, 2), 0.0f, 1e-6f);
  Matrix t = m;
  TanhInPlace(&t);
  EXPECT_NEAR(t.at(0, 0), 0.0f, 1e-6f);
  EXPECT_NEAR(t.at(0, 1), 1.0f, 1e-6f);
  EXPECT_NEAR(t.at(0, 2), -1.0f, 1e-6f);
}

TEST(Matrix, XavierInitRespectsLimit) {
  pathrank::Rng rng(3);
  Matrix m(64, 64);
  XavierInit(&m, rng);
  const float limit = std::sqrt(6.0f / 128.0f);
  for (size_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::abs(m.data()[i]), limit);
  }
  // Not all zero.
  EXPECT_GT(m.SquaredNorm(), 0.0);
}

}  // namespace
}  // namespace pathrank::nn
