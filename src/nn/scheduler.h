// The learning-rate schedule: a stateless function of the epoch index,
// applied to the optimizer between epochs.
#pragma once

#include <algorithm>
#include <cmath>

namespace pathrank::nn {

/// Cosine annealing from `base_lr` at epoch 0 to `min_lr` at epoch
/// `total_epochs - 1`; `epoch` is 0-based and later epochs stay at
/// `min_lr`.
inline double CosineLearningRate(double base_lr, double min_lr, int epoch,
                                 int total_epochs) {
  const double T = std::max(1, total_epochs - 1);
  const double frac = std::clamp(epoch / T, 0.0, 1.0);
  return min_lr + 0.5 * (base_lr - min_lr) *
                      (1.0 + std::cos(3.14159265358979323846 * frac));
}

}  // namespace pathrank::nn
