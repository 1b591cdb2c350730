#include "nn/parameter.h"

#include <cmath>

namespace pathrank::nn {

double GradientSquaredNorm(const ParameterList& params) {
  double sum = 0.0;
  for (const Parameter* p : params) {
    if (p->frozen) continue;
    sum += p->grad.SquaredNorm();
  }
  return sum;
}

double ClipGradientNorm(const ParameterList& params, double max_norm) {
  const double norm = std::sqrt(GradientSquaredNorm(params));
  if (norm > max_norm && norm > 0.0) {
    const float scale = static_cast<float>(max_norm / norm);
    for (Parameter* p : params) {
      if (p->frozen) continue;
      p->grad.Scale(scale);
    }
  }
  return norm;
}

void ZeroGradients(const ParameterList& params) {
  for (Parameter* p : params) p->ZeroGrad();
}

ParameterList MutableParameters(const ConstParameterList& params) {
  ParameterList mutable_params;
  mutable_params.reserve(params.size());
  for (const Parameter* p : params) {
    mutable_params.push_back(const_cast<Parameter*>(p));
  }
  return mutable_params;
}

}  // namespace pathrank::nn
