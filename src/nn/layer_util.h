// Small helpers shared by layer implementations.
#pragma once

#include <vector>

#include "nn/matrix.h"

namespace pathrank::nn {

/// bias_grad[0,c] += sum over rows of m[.,c].
inline void AddColumnSums(const Matrix& m, Matrix* bias_grad) {
  PR_CHECK(bias_grad->rows() == 1 && bias_grad->cols() == m.cols());
  float* g = bias_grad->row(0);
  for (size_t r = 0; r < m.rows(); ++r) {
    const float* row = m.row(r);
    for (size_t c = 0; c < m.cols(); ++c) g[c] += row[c];
  }
}

/// Sizes a per-timestep cache to `num_steps` matrices of [rows x cols]
/// without zeroing, reusing buffers from previous calls. Every matrix the
/// caller reads must be fully written first (activation caches are).
inline void EnsureStepShapes(std::vector<Matrix>* steps, size_t num_steps,
                             size_t rows, size_t cols) {
  if (steps->size() != num_steps) steps->resize(num_steps);
  for (Matrix& m : *steps) m.ResizeNoZero(rows, cols);
}

/// Per-row binary mask for timestep t: 1 when t < lengths[b].
inline std::vector<float> StepMask(const std::vector<int32_t>& lengths,
                                   size_t t) {
  std::vector<float> mask(lengths.size());
  for (size_t b = 0; b < lengths.size(); ++b) {
    mask[b] = (static_cast<int32_t>(t) < lengths[b]) ? 1.0f : 0.0f;
  }
  return mask;
}

}  // namespace pathrank::nn
