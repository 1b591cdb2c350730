#include "nn/loss.h"

#include "common/logging.h"

namespace pathrank::nn {

double MseLoss(std::span<const float> predicted, std::span<const float> truth,
               std::vector<float>* d_predicted) {
  PR_CHECK(predicted.size() == truth.size() && !predicted.empty());
  const size_t n = predicted.size();
  d_predicted->assign(n, 0.0f);
  double loss = 0.0;
  const float inv_n = 1.0f / static_cast<float>(n);
  for (size_t i = 0; i < n; ++i) {
    const float diff = predicted[i] - truth[i];
    loss += static_cast<double>(diff) * diff;
    (*d_predicted)[i] = 2.0f * diff * inv_n;
  }
  return loss / static_cast<double>(n);
}

}  // namespace pathrank::nn
