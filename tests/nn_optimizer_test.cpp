// The optimizer and schedule: Adam's exact update, convergence and
// frozen-parameter semantics, gradient clipping and the cosine schedule.
#include <gtest/gtest.h>

#include <cmath>

#include "nn/optimizer.h"
#include "nn/parameter.h"
#include "nn/scheduler.h"

namespace pathrank::nn {
namespace {

TEST(Adam, FirstStepHasUnitScale) {
  // With bias correction, the first Adam step is ~lr * sign(grad).
  Parameter p("w", 1, 1);
  p.value.Fill(0.0f);
  p.grad.Fill(123.0f);
  Adam adam(0.01);
  adam.Step({&p});
  EXPECT_NEAR(p.value.at(0, 0), -0.01f, 1e-4f);
}

TEST(Adam, MinimisesQuadratic) {
  // f(w) = 0.5 * (w - 3)^2; gradient w - 3.
  Parameter p("w", 1, 1);
  p.value.Fill(0.0f);
  Adam adam(0.1);
  for (int i = 0; i < 500; ++i) {
    p.grad.at(0, 0) = p.value.at(0, 0) - 3.0f;
    adam.Step({&p});
  }
  EXPECT_NEAR(p.value.at(0, 0), 3.0f, 0.05f);
}

TEST(Adam, FrozenParameterUntouched) {
  Parameter p("w", 2, 2);
  p.value.Fill(1.0f);
  p.grad.Fill(5.0f);
  p.frozen = true;
  Adam adam(0.1);
  adam.Step({&p});
  for (size_t i = 0; i < p.value.size(); ++i) {
    EXPECT_EQ(p.value.data()[i], 1.0f);
  }
}

TEST(Adam, StepMatchesScalarReference) {
  // Adam's exact bits: several steps of a two-element parameter against
  // the update written out per element, in the optimizer's float
  // arithmetic with beta1 0.9, beta2 0.999, epsilon 1e-8 and no decay.
  // The second element's gradients are small enough that epsilon moves
  // its update by about 1%.
  Parameter p("w", 1, 2);
  p.value.at(0, 0) = 0.75f;
  p.value.at(0, 1) = -1.25f;
  const float grads[4][2] = {
      {0.5f, -2e-6f}, {-0.125f, 3e-6f}, {0.0f, -6.25e-8f}, {1.5f, 2.5e-7f}};
  const double lrs[4] = {0.01, 0.01, 0.003, 0.02};
  Adam adam(lrs[0]);

  float w[2] = {0.75f, -1.25f};
  float m[2] = {0.0f, 0.0f};
  float v[2] = {0.0f, 0.0f};
  const auto b1 = static_cast<float>(0.9);
  const auto b2 = static_cast<float>(0.999);
  const auto eps = static_cast<float>(1e-8);
  for (int step = 0; step < 4; ++step) {
    p.grad.at(0, 0) = grads[step][0];
    p.grad.at(0, 1) = grads[step][1];
    adam.set_learning_rate(lrs[step]);
    adam.Step({&p});

    const double t = step + 1;
    const auto inv_bias1 = static_cast<float>(1.0 / (1.0 - std::pow(0.9, t)));
    const auto inv_bias2 =
        static_cast<float>(1.0 / (1.0 - std::pow(0.999, t)));
    const auto lr = static_cast<float>(lrs[step]);
    for (int i = 0; i < 2; ++i) {
      const float g = grads[step][i];
      m[i] = b1 * m[i] + (1.0f - b1) * g;
      v[i] = b2 * v[i] + (1.0f - b2) * g * g;
      const float mhat = m[i] * inv_bias1;
      const float vhat = v[i] * inv_bias2;
      w[i] -= lr * (mhat / (std::sqrt(vhat) + eps));
      EXPECT_EQ(p.value.at(0, i), w[i]) << "step " << step << ", element "
                                        << i;
    }
  }
}

TEST(Clip, NormAboveThresholdIsScaled) {
  Parameter p("w", 1, 2);
  p.grad.at(0, 0) = 3.0f;
  p.grad.at(0, 1) = 4.0f;  // norm 5
  const double pre = ClipGradientNorm({&p}, 1.0);
  EXPECT_NEAR(pre, 5.0, 1e-9);
  EXPECT_NEAR(std::sqrt(p.grad.SquaredNorm()), 1.0, 1e-6);
}

TEST(Clip, NormBelowThresholdUntouched) {
  Parameter p("w", 1, 2);
  p.grad.at(0, 0) = 0.3f;
  p.grad.at(0, 1) = 0.4f;
  ClipGradientNorm({&p}, 1.0);
  EXPECT_NEAR(p.grad.at(0, 0), 0.3f, 1e-7f);
}

TEST(ZeroGradients, ClearsAll) {
  Parameter a("a", 2, 2);
  Parameter b("b", 1, 4);
  a.grad.Fill(1.0f);
  b.grad.Fill(2.0f);
  ZeroGradients({&a, &b});
  EXPECT_DOUBLE_EQ(a.grad.SquaredNorm(), 0.0);
  EXPECT_DOUBLE_EQ(b.grad.SquaredNorm(), 0.0);
}

TEST(Schedule, CosineAnnealsToMin) {
  auto lr_at = [](int epoch) {
    return CosineLearningRate(1.0, 0.1, epoch, 11);
  };
  EXPECT_NEAR(lr_at(0), 1.0, 1e-12);
  EXPECT_NEAR(lr_at(10), 0.1, 1e-12);
  EXPECT_NEAR(lr_at(5), 0.55, 1e-12);  // midpoint
  // Monotone decreasing.
  for (int e = 1; e <= 10; ++e) {
    EXPECT_LE(lr_at(e), lr_at(e - 1) + 1e-12);
  }
}

}  // namespace
}  // namespace pathrank::nn
