// The training loss: mean squared error over a batch of scalar
// predictions.
#pragma once

#include <span>
#include <vector>

namespace pathrank::nn {

/// Mean squared error: L = mean((p - t)^2). Returns L and writes
/// d(L)/d(p), already divided by the batch size, into `d_predicted`.
double MseLoss(std::span<const float> predicted, std::span<const float> truth,
               std::vector<float>* d_predicted);

}  // namespace pathrank::nn
