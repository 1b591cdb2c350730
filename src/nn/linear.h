// Fully-connected layer Y = X W + b.
#pragma once

#include <string>
#include <utility>

#include "nn/parameter.h"

namespace pathrank::nn {

/// Affine layer. Backward takes the forward input back from the caller,
/// so the layer caches nothing.
class LinearLayer {
 public:
  LinearLayer(size_t input_size, size_t output_size, pathrank::Rng& rng,
              const std::string& name_prefix = "fc");

  /// Skip-init construction (weights left zero, to be copied into).
  LinearLayer(size_t input_size, size_t output_size, SkipInit,
              const std::string& name_prefix = "fc");

  /// Y[B x out] = X[B x in] W + b. It never mutates the layer, so many
  /// threads may call it at once.
  void ForwardInference(const Matrix& x, Matrix* y) const;

  /// Backward for input `x`: accumulates dW, db and writes dX (skipped
  /// when `d_x` is null).
  void Backward(const Matrix& x, const Matrix& d_y, Matrix* d_x);

  ConstParameterList Parameters() const { return {&w_, &b_}; }
  ParameterList Parameters() {
    return MutableParameters(std::as_const(*this).Parameters());
  }
  size_t input_size() const { return w_.value.rows(); }
  size_t output_size() const { return w_.value.cols(); }

 private:
  Parameter w_;  // [in x out]
  Parameter b_;  // [1 x out]
};

}  // namespace pathrank::nn
