// Finite-difference gradient verification for every trainable layer.
//
// Loss = sum(output * R) for a fixed random projection R; analytic
// gradients from Backward are compared against central differences on each
// parameter (and on the inputs). Float32 parameters limit achievable
// precision, so tolerances are relative with a small absolute floor.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "nn/embedding_layer.h"
#include "nn/linear.h"
#include "nn/recurrent.h"
#include "nn/sequence_batch.h"

namespace pathrank::nn {
namespace {

constexpr float kEps = 2e-3f;
constexpr double kRelTol = 3e-2;
constexpr double kAbsTol = 2e-3;

void FillRandom(Matrix* m, pathrank::Rng& rng, double scale = 1.0) {
  for (size_t i = 0; i < m->size(); ++i) {
    m->data()[i] = static_cast<float>(rng.NextUniform(-scale, scale));
  }
}

void ExpectGradClose(double analytic, double numeric, const std::string& ctx) {
  const double tol = kAbsTol + kRelTol * std::abs(numeric);
  EXPECT_NEAR(analytic, numeric, tol) << ctx;
}

/// Checks d(loss)/d(param[i]) for every element of `param` given a loss
/// callback that re-runs the forward pass.
void CheckParameterGradient(Parameter& param,
                            const std::function<double()>& loss_fn,
                            const Matrix& analytic_grad,
                            const std::string& ctx) {
  for (size_t i = 0; i < param.value.size(); ++i) {
    const float saved = param.value.data()[i];
    param.value.data()[i] = saved + kEps;
    const double up = loss_fn();
    param.value.data()[i] = saved - kEps;
    const double down = loss_fn();
    param.value.data()[i] = saved;
    const double numeric = (up - down) / (2.0 * kEps);
    ExpectGradClose(analytic_grad.data()[i], numeric,
                    ctx + " elem " + std::to_string(i));
  }
}

double WeightedSum(const Matrix& out, const Matrix& weights) {
  double sum = 0.0;
  for (size_t i = 0; i < out.size(); ++i) {
    sum += static_cast<double>(out.data()[i]) * weights.data()[i];
  }
  return sum;
}

TEST(GradCheck, LinearLayer) {
  pathrank::Rng rng(21);
  LinearLayer fc(3, 2, rng);
  Matrix x(2, 3);
  FillRandom(&x, rng);
  Matrix r(2, 2);
  FillRandom(&r, rng);

  auto loss_fn = [&]() {
    Matrix y;
    fc.ForwardInference(x, &y);
    return WeightedSum(y, r);
  };

  for (Parameter* p : fc.Parameters()) p->ZeroGrad();
  Matrix dx;
  fc.Backward(x, r, &dx);

  CheckParameterGradient(*fc.Parameters()[0], loss_fn,
                         fc.Parameters()[0]->grad, "linear W");
  CheckParameterGradient(*fc.Parameters()[1], loss_fn,
                         fc.Parameters()[1]->grad, "linear b");

  // Input gradient.
  for (size_t i = 0; i < x.size(); ++i) {
    const float saved = x.data()[i];
    x.data()[i] = saved + kEps;
    const double up = loss_fn();
    x.data()[i] = saved - kEps;
    const double down = loss_fn();
    x.data()[i] = saved;
    ExpectGradClose(dx.data()[i], (up - down) / (2.0 * kEps), "linear dX");
  }
}

TEST(GradCheck, EmbeddingLayer) {
  pathrank::Rng rng(22);
  EmbeddingLayer emb(6, 3, rng);
  const auto batch = SequenceBatch::FromSequences({{2, 4}, {5}});
  Matrix r0(2, 3);
  Matrix r1(2, 3);
  FillRandom(&r0, rng);
  FillRandom(&r1, rng);

  auto loss_fn = [&]() {
    Matrix x0;
    Matrix x1;
    emb.Lookup(batch, 0, &x0);
    emb.Lookup(batch, 1, &x1);
    // Padded rows contribute zero to the loss (mask applied manually).
    double sum = WeightedSum(x0, r0);
    for (size_t b = 0; b < batch.batch_size; ++b) {
      if (batch.lengths[b] < 2) continue;
      for (size_t c = 0; c < 3; ++c) {
        sum += static_cast<double>(x1.at(b, c)) * r1.at(b, c);
      }
    }
    return sum;
  };

  emb.parameter().ZeroGrad();
  emb.AccumulateGrad(batch, 0, r0);
  emb.AccumulateGrad(batch, 1, r1);
  CheckParameterGradient(emb.parameter(), loss_fn, emb.parameter().grad,
                         "embedding table");
}

class RecurrentGradCheck : public ::testing::TestWithParam<CellType> {};

TEST_P(RecurrentGradCheck, ParameterAndInputGradients) {
  pathrank::Rng rng(23 + static_cast<int>(GetParam()));
  auto cell = MakeRecurrentLayer(GetParam(), 2, 3, &rng, "cell");
  const std::vector<int32_t> lengths{3, 2};  // includes a masked tail

  std::vector<Matrix> x_steps(3, Matrix(2, 2));
  for (auto& x : x_steps) FillRandom(&x, rng, 0.8);
  Matrix r(2, 3);
  FillRandom(&r, rng);

  auto loss_fn = [&]() {
    Matrix h;
    cell->Forward(x_steps, lengths, &h);
    return WeightedSum(h, r);
  };

  Matrix h;
  cell->Forward(x_steps, lengths, &h);
  for (Parameter* p : cell->Parameters()) p->ZeroGrad();
  std::vector<Matrix> dx;
  cell->Backward(r, &dx);

  for (Parameter* p : cell->Parameters()) {
    CheckParameterGradient(*p, loss_fn, p->grad,
                           CellTypeName(GetParam()) + " param " + p->name);
  }

  // Input gradients, including that masked steps produce zero gradient for
  // the short row.
  for (size_t t = 0; t < x_steps.size(); ++t) {
    for (size_t i = 0; i < x_steps[t].size(); ++i) {
      const float saved = x_steps[t].data()[i];
      x_steps[t].data()[i] = saved + kEps;
      const double up = loss_fn();
      x_steps[t].data()[i] = saved - kEps;
      const double down = loss_fn();
      x_steps[t].data()[i] = saved;
      ExpectGradClose(
          dx[t].data()[i], (up - down) / (2.0 * kEps),
          CellTypeName(GetParam()) + " dX step " + std::to_string(t));
    }
  }
}

TEST_P(RecurrentGradCheck, PerStepGradients) {
  // BackwardSteps: loss reads EVERY hidden state, weighted per step —
  // the mean-pooling head's gradient path.
  pathrank::Rng rng(41 + static_cast<int>(GetParam()));
  auto cell = MakeRecurrentLayer(GetParam(), 2, 3, &rng, "cell");
  const std::vector<int32_t> lengths{3, 2};

  std::vector<Matrix> x_steps(3, Matrix(2, 2));
  for (auto& x : x_steps) FillRandom(&x, rng, 0.8);
  std::vector<Matrix> r(3, Matrix(2, 3));
  for (size_t t = 0; t < 3; ++t) {
    FillRandom(&r[t], rng);
    // Rows past the true length must carry zero gradient (contract).
    for (size_t b = 0; b < 2; ++b) {
      if (static_cast<int32_t>(t) >= lengths[b]) {
        for (size_t c = 0; c < 3; ++c) r[t].at(b, c) = 0.0f;
      }
    }
  }

  auto loss_fn = [&]() {
    Matrix h;
    cell->Forward(x_steps, lengths, &h);
    double sum = 0.0;
    for (size_t t = 0; t < 3; ++t) {
      sum += WeightedSum(cell->hidden_state(t), r[t]);
    }
    return sum;
  };

  Matrix h;
  cell->Forward(x_steps, lengths, &h);
  for (Parameter* p : cell->Parameters()) p->ZeroGrad();
  std::vector<Matrix> dx;
  cell->BackwardSteps(r, &dx);

  for (Parameter* p : cell->Parameters()) {
    CheckParameterGradient(
        *p, loss_fn, p->grad,
        CellTypeName(GetParam()) + " step-grad param " + p->name);
  }
  for (size_t t = 0; t < x_steps.size(); ++t) {
    for (size_t i = 0; i < x_steps[t].size(); ++i) {
      const float saved = x_steps[t].data()[i];
      x_steps[t].data()[i] = saved + kEps;
      const double up = loss_fn();
      x_steps[t].data()[i] = saved - kEps;
      const double down = loss_fn();
      x_steps[t].data()[i] = saved;
      ExpectGradClose(dx[t].data()[i], (up - down) / (2.0 * kEps),
                      CellTypeName(GetParam()) + " step-grad dX step " +
                          std::to_string(t));
    }
  }
}

TEST_P(RecurrentGradCheck, HiddenStateAccessorMatchesFinal) {
  pathrank::Rng rng(51);
  auto cell = MakeRecurrentLayer(GetParam(), 2, 3, &rng, "cell");
  std::vector<Matrix> x_steps(4, Matrix(2, 2));
  for (auto& x : x_steps) FillRandom(&x, rng);
  const std::vector<int32_t> lengths{4, 4};
  Matrix h;
  cell->Forward(x_steps, lengths, &h);
  const Matrix& last = cell->hidden_state(3);
  for (size_t i = 0; i < h.size(); ++i) {
    EXPECT_EQ(h.data()[i], last.data()[i]);
  }
}

TEST_P(RecurrentGradCheck, MaskedStepsGetZeroInputGradient) {
  pathrank::Rng rng(31);
  auto cell = MakeRecurrentLayer(GetParam(), 2, 3, &rng, "cell");
  const std::vector<int32_t> lengths{1};  // only step 0 is real
  std::vector<Matrix> x_steps(3, Matrix(1, 2));
  for (auto& x : x_steps) FillRandom(&x, rng);
  Matrix h;
  cell->Forward(x_steps, lengths, &h);
  Matrix r(1, 3);
  FillRandom(&r, rng);
  std::vector<Matrix> dx;
  cell->Backward(r, &dx);
  for (size_t t = 1; t < 3; ++t) {
    for (size_t i = 0; i < dx[t].size(); ++i) {
      EXPECT_EQ(dx[t].data()[i], 0.0f)
          << CellTypeName(GetParam()) << " step " << t << " should be masked";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Cells, RecurrentGradCheck,
                         ::testing::Values(CellType::kGru, CellType::kRnn,
                                           CellType::kLstm));

}  // namespace
}  // namespace pathrank::nn
