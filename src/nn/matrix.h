// Dense row-major float matrix and the linear-algebra kernels the neural
// layers are built on. The GEMM kernels are register/cache blocked and run
// serially on the calling thread (parallelism lives across queries);
// per-element accumulation order is fixed by the blocking constants, so
// results are bitwise identical for any thread count (see
// docs/performance.md).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace pathrank::nn {

/// Row-major dense matrix of floats. A 1 x N matrix doubles as a vector.
class Matrix {
 public:
  Matrix() = default;
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0f) {}

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  float& at(size_t r, size_t c) { return data_[r * cols_ + c]; }
  float at(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  float* row(size_t r) { return data_.data() + r * cols_; }
  const float* row(size_t r) const { return data_.data() + r * cols_; }

  std::span<float> row_span(size_t r) { return {row(r), cols_}; }
  std::span<const float> row_span(size_t r) const { return {row(r), cols_}; }

  /// Sets every element to `value`.
  void Fill(float value);

  /// Sets every element to zero.
  void Zero() { Fill(0.0f); }

  /// Resizes and zero-fills: after the call every element is 0, even when
  /// the shape is unchanged. Several callers (pooling, gradient
  /// accumulators) rely on this; use ResizeNoZero for scratch buffers
  /// whose contents are fully overwritten.
  void Resize(size_t rows, size_t cols);

  /// Resizes without the zero-fill: contents are unspecified (a no-op when
  /// the element count is unchanged). For scratch buffers only.
  void ResizeNoZero(size_t rows, size_t cols);

  /// Element-wise in-place scale.
  void Scale(float factor);

  /// this += other (same shape).
  void Add(const Matrix& other);

  /// Sum of squares of all elements.
  double SquaredNorm() const;

  bool SameShape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  std::string ShapeString() const;

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<float> data_;
};

// ---- GEMM kernels -----------------------------------------------------
// All kernels compute C = alpha * op(A) * op(B) + beta * C and require C to
// be pre-sized to the result shape. beta is restricted to {0, 1}: 0
// overwrites C, 1 accumulates (the only cases backprop needs).

/// C[M x N] (+)= A[M x K] * B[K x N].
void GemmNN(const Matrix& a, const Matrix& b, Matrix* c, float alpha = 1.0f,
            float beta = 0.0f);

/// C[M x N] (+)= A[M x K] * B^T, with B stored [N x K].
void GemmNT(const Matrix& a, const Matrix& b, Matrix* c, float alpha = 1.0f,
            float beta = 0.0f);

/// C[K x N] (+)= A^T * B, with A stored [M x K], B stored [M x N].
void GemmTN(const Matrix& a, const Matrix& b, Matrix* c, float alpha = 1.0f,
            float beta = 0.0f);

// ---- Element-wise helpers ----------------------------------------------

/// y[i] (+)= bias broadcast over rows: Y[r,c] += bias[0,c].
void AddRowBroadcast(const Matrix& bias, Matrix* y);

/// out = a (elementwise*) b; shapes must match; out may alias a or b.
void Hadamard(const Matrix& a, const Matrix& b, Matrix* out);

/// In-place logistic sigmoid.
void SigmoidInPlace(Matrix* m);

/// In-place tanh.
void TanhInPlace(Matrix* m);

// ---- Initialisation ----------------------------------------------------

/// Uniform(-limit, limit) init.
void UniformInit(Matrix* m, float limit, pathrank::Rng& rng);

/// Xavier/Glorot uniform init for a [fan_in x fan_out] weight.
void XavierInit(Matrix* m, pathrank::Rng& rng);

}  // namespace pathrank::nn
