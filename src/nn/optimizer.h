// The training optimizer: Adam (Kingma & Ba 2015) with bias correction at
// the paper's defaults, beta1 0.9, beta2 0.999 and epsilon 1e-8, no weight
// decay. Frozen parameters are skipped (their state slots are never
// created), which is how PR-A1 keeps the node2vec embedding matrix fixed.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "nn/parameter.h"

namespace pathrank::nn {

/// Adam over a ParameterList. Step() consumes the current gradients.
class Adam {
 public:
  static constexpr double kBeta1 = 0.9;
  static constexpr double kBeta2 = 0.999;
  static constexpr double kEpsilon = 1e-8;

  explicit Adam(double lr) : lr_(lr) {}

  /// Applies one update using each parameter's current gradient.
  void Step(const ParameterList& params);

  /// Sets the learning rate (the trainer's schedule, between epochs).
  void set_learning_rate(double lr) { lr_ = lr; }

 private:
  struct State {
    Matrix m;
    Matrix v;
  };
  double lr_;
  int64_t t_ = 0;
  std::unordered_map<const Parameter*, State> state_;
};

}  // namespace pathrank::nn
