#include "nn/linear.h"

#include "nn/layer_util.h"

namespace pathrank::nn {

LinearLayer::LinearLayer(size_t input_size, size_t output_size,
                         pathrank::Rng& rng, const std::string& p)
    : LinearLayer(input_size, output_size, kSkipInit, p) {
  XavierInit(&w_.value, rng);
}

LinearLayer::LinearLayer(size_t input_size, size_t output_size, SkipInit,
                         const std::string& p)
    : w_(p + ".w", input_size, output_size), b_(p + ".b", 1, output_size) {}

void LinearLayer::ForwardInference(const Matrix& x, Matrix* y) const {
  PR_CHECK(x.cols() == input_size());
  if (y->rows() != x.rows() || y->cols() != output_size()) {
    y->Resize(x.rows(), output_size());
  }
  GemmNN(x, w_.value, y);
  AddRowBroadcast(b_.value, y);
}

void LinearLayer::Backward(const Matrix& x, const Matrix& d_y, Matrix* d_x) {
  PR_CHECK(d_y.rows() == x.rows() && d_y.cols() == output_size());
  GemmTN(x, d_y, &w_.grad, 1.0f, 1.0f);
  AddColumnSums(d_y, &b_.grad);
  if (d_x != nullptr) {
    if (!d_x->SameShape(x)) d_x->Resize(x.rows(), x.cols());
    GemmNT(d_y, w_.value, d_x, 1.0f, 0.0f);
  }
}

}  // namespace pathrank::nn
