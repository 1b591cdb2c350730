#include "nn/optimizer.h"

#include <cmath>

namespace pathrank::nn {

void Adam::Step(const ParameterList& params) {
  ++t_;
  const double bias1 = 1.0 - std::pow(kBeta1, static_cast<double>(t_));
  const double bias2 = 1.0 - std::pow(kBeta2, static_cast<double>(t_));
  const auto lr = static_cast<float>(lr_);
  const auto b1 = static_cast<float>(kBeta1);
  const auto b2 = static_cast<float>(kBeta2);
  const auto eps = static_cast<float>(kEpsilon);
  const auto inv_bias1 = static_cast<float>(1.0 / bias1);
  const auto inv_bias2 = static_cast<float>(1.0 / bias2);

  for (Parameter* p : params) {
    if (p->frozen) continue;
    State& s = state_[p];
    if (!s.m.SameShape(p->value)) {
      s.m.Resize(p->value.rows(), p->value.cols());
      s.v.Resize(p->value.rows(), p->value.cols());
    }
    float* m = s.m.data();
    float* v = s.v.data();
    const float* g = p->grad.data();
    float* w = p->value.data();
    const size_t n = p->value.size();
    for (size_t i = 0; i < n; ++i) {
      m[i] = b1 * m[i] + (1.0f - b1) * g[i];
      v[i] = b2 * v[i] + (1.0f - b2) * g[i] * g[i];
      const float mhat = m[i] * inv_bias1;
      const float vhat = v[i] * inv_bias2;
      w[i] -= lr * (mhat / (std::sqrt(vhat) + eps));
    }
  }
}

}  // namespace pathrank::nn
