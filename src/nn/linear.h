// Fully-connected layer Y = X W + b.
#pragma once

#include <string>

#include "nn/parameter.h"

namespace pathrank::nn {

/// Affine layer with cached input for backprop.
class LinearLayer {
 public:
  LinearLayer(size_t input_size, size_t output_size, pathrank::Rng& rng,
              const std::string& name_prefix = "fc");

  /// Skip-init construction (weights left zero, to be copied into).
  LinearLayer(size_t input_size, size_t output_size, SkipInit,
              const std::string& name_prefix = "fc");

  /// Y[B x out] = X[B x in] W + b. Caches X for Backward(d_y, d_x).
  void Forward(const Matrix& x, Matrix* y);

  /// Forward without the input cache: it never mutates the layer, so
  /// many threads may call it at once.
  void ForwardInference(const Matrix& x, Matrix* y) const;

  /// Backward for input `x`: accumulates dW, db and writes dX (skipped
  /// when `d_x` is null).
  void Backward(const Matrix& x, const Matrix& d_y, Matrix* d_x);

  /// Backward for the last Forward's input.
  void Backward(const Matrix& d_y, Matrix* d_x) {
    Backward(x_cache_, d_y, d_x);
  }

  ParameterList Parameters() { return {&w_, &b_}; }
  ConstParameterList Parameters() const { return {&w_, &b_}; }
  size_t input_size() const { return w_.value.rows(); }
  size_t output_size() const { return w_.value.cols(); }

 private:
  Parameter w_;  // [in x out]
  Parameter b_;  // [1 x out]
  Matrix x_cache_;
};

}  // namespace pathrank::nn
