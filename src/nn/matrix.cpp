#include "nn/matrix.h"

#include <algorithm>
#include <cmath>

#include "common/string_util.h"

namespace pathrank::nn {

void Matrix::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::Resize(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0f);
}

void Matrix::ResizeNoZero(size_t rows, size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.resize(rows * cols);
}

void Matrix::Scale(float factor) {
  for (float& v : data_) v *= factor;
}

void Matrix::Add(const Matrix& other) {
  PR_CHECK(SameShape(other)) << ShapeString() << " vs " << other.ShapeString();
  const float* src = other.data();
  float* dst = data();
  const size_t n = size();
  for (size_t i = 0; i < n; ++i) dst[i] += src[i];
}

double Matrix::SquaredNorm() const {
  double sum = 0.0;
  for (float v : data_) sum += static_cast<double>(v) * v;
  return sum;
}

std::string Matrix::ShapeString() const {
  return StrFormat("[%zu x %zu]", rows_, cols_);
}

// ---- GEMM kernels ------------------------------------------------------
//
// Blocking scheme (row-major everywhere):
//   * K is cut into panels of kKBlock so the active slice of B stays in
//     L2 across the output rows of a panel.
//   * N is cut into strips of kNBlock so the C rows being updated stay in
//     L1 across a K panel.
//   * Output rows are computed four at a time, which reuses every loaded
//     B row (NN/TN) or lets four dot-product chains run in parallel (NT).
// The kernels run serially on the calling thread (parallelism lives
// across queries, not inside a kernel). Each output element's
// accumulation order depends only on the blocking constants — never on
// the 4-row/1-row kernel split — so results are bitwise reproducible.

namespace {

constexpr size_t kKBlock = 256;

// Register-tile width: 16 floats = two AVX2 vectors. With 4 output rows
// the accumulators occupy 8 vector registers and are written to memory
// once per K panel instead of once per k step.
constexpr size_t kTileN = 16;

/// One 4 x w register tile of C (w <= kTileN): accumulates
/// sum_{kk in [k0,k1)} alpha * A[i+r, kk] * B[kk, j+l] into registers,
/// then adds the panel total onto C. Per-element accumulation order
/// depends only on (k0, k1), matching the 1-row kernel below exactly.
inline void GemmNNTile4(const float* a0, const float* a1, const float* a2,
                        const float* a3, const Matrix& b, float alpha,
                        size_t k0, size_t k1, size_t j, size_t w, float* c0,
                        float* c1, float* c2, float* c3) {
  float acc0[kTileN] = {};
  float acc1[kTileN] = {};
  float acc2[kTileN] = {};
  float acc3[kTileN] = {};
  if (w == kTileN) {
    for (size_t kk = k0; kk < k1; ++kk) {
      const float* bp = b.row(kk) + j;
      const float a0k = alpha * a0[kk];
      const float a1k = alpha * a1[kk];
      const float a2k = alpha * a2[kk];
      const float a3k = alpha * a3[kk];
      for (size_t l = 0; l < kTileN; ++l) {
        acc0[l] += a0k * bp[l];
        acc1[l] += a1k * bp[l];
        acc2[l] += a2k * bp[l];
        acc3[l] += a3k * bp[l];
      }
    }
  } else {
    for (size_t kk = k0; kk < k1; ++kk) {
      const float* bp = b.row(kk) + j;
      const float a0k = alpha * a0[kk];
      const float a1k = alpha * a1[kk];
      const float a2k = alpha * a2[kk];
      const float a3k = alpha * a3[kk];
      for (size_t l = 0; l < w; ++l) {
        acc0[l] += a0k * bp[l];
        acc1[l] += a1k * bp[l];
        acc2[l] += a2k * bp[l];
        acc3[l] += a3k * bp[l];
      }
    }
  }
  for (size_t l = 0; l < w; ++l) {
    c0[j + l] += acc0[l];
    c1[j + l] += acc1[l];
    c2[j + l] += acc2[l];
    c3[j + l] += acc3[l];
  }
}

/// 1 x w register tile, same accumulation structure as GemmNNTile4.
inline void GemmNNTile1(const float* a_row, const Matrix& b, float alpha,
                        size_t k0, size_t k1, size_t j, size_t w,
                        float* c_row) {
  float acc[kTileN] = {};
  if (w == kTileN) {
    for (size_t kk = k0; kk < k1; ++kk) {
      const float* bp = b.row(kk) + j;
      const float ak = alpha * a_row[kk];
      for (size_t l = 0; l < kTileN; ++l) acc[l] += ak * bp[l];
    }
  } else {
    for (size_t kk = k0; kk < k1; ++kk) {
      const float* bp = b.row(kk) + j;
      const float ak = alpha * a_row[kk];
      for (size_t l = 0; l < w; ++l) acc[l] += ak * bp[l];
    }
  }
  for (size_t l = 0; l < w; ++l) c_row[j + l] += acc[l];
}

/// 1 x 4*kTileN tile: four adjacent GemmNNTile1 strips of one row in one
/// pass over k. A lone strip is one pair of dependent accumulator chains
/// that waits on FMA latency; four strips keep eight chains in flight.
/// Per-element accumulation order is GemmNNTile1's exactly.
inline void GemmNNTile1x4(const float* a_row, const Matrix& b, float alpha,
                          size_t k0, size_t k1, size_t j, float* c_row) {
  float acc0[kTileN] = {};
  float acc1[kTileN] = {};
  float acc2[kTileN] = {};
  float acc3[kTileN] = {};
  for (size_t kk = k0; kk < k1; ++kk) {
    const float* bp = b.row(kk) + j;
    const float ak = alpha * a_row[kk];
    for (size_t l = 0; l < kTileN; ++l) {
      acc0[l] += ak * bp[l];
      acc1[l] += ak * bp[kTileN + l];
      acc2[l] += ak * bp[2 * kTileN + l];
      acc3[l] += ak * bp[3 * kTileN + l];
    }
  }
  for (size_t l = 0; l < kTileN; ++l) {
    c_row[j + l] += acc0[l];
    c_row[j + kTileN + l] += acc1[l];
    c_row[j + 2 * kTileN + l] += acc2[l];
    c_row[j + 3 * kTileN + l] += acc3[l];
  }
}

// The three *Rows drivers stay out of line: inlined into their one caller,
// GCC 12 also inlines the register tiles into the loop nest, and
// BM_GemmNN/128 and /256 (bench_nn) ran 30-40 % slower.

/// C rows [i_begin, i_end) of C[M x N] += A[M x K] * B[K x N], A scaled by
/// alpha. C must already hold the beta-scaled base.
[[gnu::noinline]]
void GemmNNRows(const Matrix& a, const Matrix& b, Matrix* c, float alpha,
                size_t i_begin, size_t i_end) {
  const size_t k = a.cols();
  const size_t n = b.cols();
  for (size_t k0 = 0; k0 < k; k0 += kKBlock) {
    const size_t k1 = std::min(k, k0 + kKBlock);
    size_t i = i_begin;
    for (; i + 4 <= i_end; i += 4) {
      const float* a0 = a.row(i);
      const float* a1 = a.row(i + 1);
      const float* a2 = a.row(i + 2);
      const float* a3 = a.row(i + 3);
      float* c0 = c->row(i);
      float* c1 = c->row(i + 1);
      float* c2 = c->row(i + 2);
      float* c3 = c->row(i + 3);
      size_t j = 0;
      for (; j + kTileN <= n; j += kTileN) {
        GemmNNTile4(a0, a1, a2, a3, b, alpha, k0, k1, j, kTileN, c0, c1, c2,
                    c3);
      }
      if (j < n) {
        GemmNNTile4(a0, a1, a2, a3, b, alpha, k0, k1, j, n - j, c0, c1, c2,
                    c3);
      }
    }
    for (; i < i_end; ++i) {
      const float* a_row = a.row(i);
      float* c_row = c->row(i);
      size_t j = 0;
      for (; j + 4 * kTileN <= n; j += 4 * kTileN) {
        GemmNNTile1x4(a_row, b, alpha, k0, k1, j, c_row);
      }
      for (; j + kTileN <= n; j += kTileN) {
        GemmNNTile1(a_row, b, alpha, k0, k1, j, kTileN, c_row);
      }
      if (j < n) GemmNNTile1(a_row, b, alpha, k0, k1, j, n - j, c_row);
    }
  }
}

/// Dot product with a fixed 8-way split accumulation order (vectorises
/// without -ffast-math; identical order wherever it is called from).
inline float DotSplit8(const float* a, const float* b, size_t k) {
  float acc[8] = {};
  size_t kk = 0;
  for (; kk + 8 <= k; kk += 8) {
    for (size_t l = 0; l < 8; ++l) acc[l] += a[kk + l] * b[kk + l];
  }
  float tail = 0.0f;
  for (; kk < k; ++kk) tail += a[kk] * b[kk];
  const float lo = (acc[0] + acc[1]) + (acc[2] + acc[3]);
  const float hi = (acc[4] + acc[5]) + (acc[6] + acc[7]);
  return (lo + hi) + tail;
}

/// C rows [i_begin, i_end) of C[M x N] (+)= A[M x K] * B^T, B is [N x K].
[[gnu::noinline]]
void GemmNTRows(const Matrix& a, const Matrix& b, Matrix* c, float alpha,
                float beta, size_t i_begin, size_t i_end) {
  const size_t k = a.cols();
  const size_t n = b.rows();
  for (size_t i = i_begin; i < i_end; ++i) {
    const float* a_row = a.row(i);
    float* c_row = c->row(i);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      // Four independent dot chains per A row: each reuses the cached
      // A row and keeps the FMA pipeline full.
      const float d0 = DotSplit8(a_row, b.row(j), k);
      const float d1 = DotSplit8(a_row, b.row(j + 1), k);
      const float d2 = DotSplit8(a_row, b.row(j + 2), k);
      const float d3 = DotSplit8(a_row, b.row(j + 3), k);
      if (beta == 0.0f) {
        c_row[j] = alpha * d0;
        c_row[j + 1] = alpha * d1;
        c_row[j + 2] = alpha * d2;
        c_row[j + 3] = alpha * d3;
      } else {
        c_row[j] += alpha * d0;
        c_row[j + 1] += alpha * d1;
        c_row[j + 2] += alpha * d2;
        c_row[j + 3] += alpha * d3;
      }
    }
    for (; j < n; ++j) {
      const float d = DotSplit8(a_row, b.row(j), k);
      c_row[j] = alpha * d + (beta == 0.0f ? 0.0f : c_row[j]);
    }
  }
}

/// One 4 x w register tile of C[K x N] += A^T * B: accumulates
/// sum_{i in [i0,i1)} alpha * A[i, kk+r] * B[i, j+l] in registers, then
/// adds the panel total onto C. The A reads are the transposed access
/// (four scalars per i from one A row); B reads are unit-stride.
inline void GemmTNTile4(const Matrix& a, const Matrix& b, float alpha,
                        size_t i0, size_t i1, size_t kk, size_t j, size_t w,
                        float* c0, float* c1, float* c2, float* c3) {
  float acc0[kTileN] = {};
  float acc1[kTileN] = {};
  float acc2[kTileN] = {};
  float acc3[kTileN] = {};
  if (w == kTileN) {
    for (size_t i = i0; i < i1; ++i) {
      const float* a_row = a.row(i);
      const float* bp = b.row(i) + j;
      const float a0k = alpha * a_row[kk];
      const float a1k = alpha * a_row[kk + 1];
      const float a2k = alpha * a_row[kk + 2];
      const float a3k = alpha * a_row[kk + 3];
      for (size_t l = 0; l < kTileN; ++l) {
        acc0[l] += a0k * bp[l];
        acc1[l] += a1k * bp[l];
        acc2[l] += a2k * bp[l];
        acc3[l] += a3k * bp[l];
      }
    }
  } else {
    for (size_t i = i0; i < i1; ++i) {
      const float* a_row = a.row(i);
      const float* bp = b.row(i) + j;
      const float a0k = alpha * a_row[kk];
      const float a1k = alpha * a_row[kk + 1];
      const float a2k = alpha * a_row[kk + 2];
      const float a3k = alpha * a_row[kk + 3];
      for (size_t l = 0; l < w; ++l) {
        acc0[l] += a0k * bp[l];
        acc1[l] += a1k * bp[l];
        acc2[l] += a2k * bp[l];
        acc3[l] += a3k * bp[l];
      }
    }
  }
  for (size_t l = 0; l < w; ++l) {
    c0[j + l] += acc0[l];
    c1[j + l] += acc1[l];
    c2[j + l] += acc2[l];
    c3[j + l] += acc3[l];
  }
}

/// 1 x w register tile, same accumulation structure as GemmTNTile4.
inline void GemmTNTile1(const Matrix& a, const Matrix& b, float alpha,
                        size_t i0, size_t i1, size_t kk, size_t j, size_t w,
                        float* c_row) {
  float acc[kTileN] = {};
  if (w == kTileN) {
    for (size_t i = i0; i < i1; ++i) {
      const float ak = alpha * a.row(i)[kk];
      const float* bp = b.row(i) + j;
      for (size_t l = 0; l < kTileN; ++l) acc[l] += ak * bp[l];
    }
  } else {
    for (size_t i = i0; i < i1; ++i) {
      const float ak = alpha * a.row(i)[kk];
      const float* bp = b.row(i) + j;
      for (size_t l = 0; l < w; ++l) acc[l] += ak * bp[l];
    }
  }
  for (size_t l = 0; l < w; ++l) c_row[j + l] += acc[l];
}

/// C rows [kk_begin, kk_end) of C[K x N] += A^T * B with A [M x K],
/// B [M x N]. Per element, accumulation over i is ascending within fixed
/// kKBlock panels regardless of which tile width computed it.
[[gnu::noinline]]
void GemmTNRows(const Matrix& a, const Matrix& b, Matrix* c, float alpha,
                size_t kk_begin, size_t kk_end) {
  const size_t m = a.rows();
  const size_t n = b.cols();
  for (size_t i0 = 0; i0 < m; i0 += kKBlock) {
    const size_t i1 = std::min(m, i0 + kKBlock);
    size_t kk = kk_begin;
    for (; kk + 4 <= kk_end; kk += 4) {
      float* c0 = c->row(kk);
      float* c1 = c->row(kk + 1);
      float* c2 = c->row(kk + 2);
      float* c3 = c->row(kk + 3);
      size_t j = 0;
      for (; j + kTileN <= n; j += kTileN) {
        GemmTNTile4(a, b, alpha, i0, i1, kk, j, kTileN, c0, c1, c2, c3);
      }
      if (j < n) {
        GemmTNTile4(a, b, alpha, i0, i1, kk, j, n - j, c0, c1, c2, c3);
      }
    }
    for (; kk < kk_end; ++kk) {
      float* c_row = c->row(kk);
      size_t j = 0;
      for (; j + kTileN <= n; j += kTileN) {
        GemmTNTile1(a, b, alpha, i0, i1, kk, j, kTileN, c_row);
      }
      if (j < n) GemmTNTile1(a, b, alpha, i0, i1, kk, j, n - j, c_row);
    }
  }
}

}  // namespace

void GemmNN(const Matrix& a, const Matrix& b, Matrix* c, float alpha,
            float beta) {
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.cols();
  PR_CHECK(b.rows() == k) << "GemmNN inner-dim mismatch";
  PR_CHECK(c->rows() == m && c->cols() == n) << "GemmNN output shape";
  if (beta == 0.0f) c->Zero();
  GemmNNRows(a, b, c, alpha, 0, m);
}

void GemmNT(const Matrix& a, const Matrix& b, Matrix* c, float alpha,
            float beta) {
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.rows();
  PR_CHECK(b.cols() == k) << "GemmNT inner-dim mismatch";
  PR_CHECK(c->rows() == m && c->cols() == n) << "GemmNT output shape";
  GemmNTRows(a, b, c, alpha, beta, 0, m);
}

void GemmTN(const Matrix& a, const Matrix& b, Matrix* c, float alpha,
            float beta) {
  const size_t m = a.rows();
  const size_t k = a.cols();
  const size_t n = b.cols();
  PR_CHECK(b.rows() == m) << "GemmTN inner-dim mismatch";
  PR_CHECK(c->rows() == k && c->cols() == n) << "GemmTN output shape";
  if (beta == 0.0f) c->Zero();
  GemmTNRows(a, b, c, alpha, 0, k);
}

void AddRowBroadcast(const Matrix& bias, Matrix* y) {
  PR_CHECK(bias.rows() == 1 && bias.cols() == y->cols());
  const float* b = bias.row(0);
  for (size_t r = 0; r < y->rows(); ++r) {
    float* row = y->row(r);
    for (size_t c = 0; c < y->cols(); ++c) row[c] += b[c];
  }
}

void Hadamard(const Matrix& a, const Matrix& b, Matrix* out) {
  PR_CHECK(a.SameShape(b));
  if (!out->SameShape(a)) out->ResizeNoZero(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pb = b.data();
  float* po = out->data();
  const size_t n = a.size();
  for (size_t i = 0; i < n; ++i) po[i] = pa[i] * pb[i];
}

void SigmoidInPlace(Matrix* m) {
  float* p = m->data();
  const size_t n = m->size();
  for (size_t i = 0; i < n; ++i) p[i] = 1.0f / (1.0f + std::exp(-p[i]));
}

void TanhInPlace(Matrix* m) {
  float* p = m->data();
  const size_t n = m->size();
  for (size_t i = 0; i < n; ++i) p[i] = std::tanh(p[i]);
}

void UniformInit(Matrix* m, float limit, pathrank::Rng& rng) {
  float* p = m->data();
  const size_t n = m->size();
  for (size_t i = 0; i < n; ++i) {
    p[i] = static_cast<float>(rng.NextUniform(-limit, limit));
  }
}

void XavierInit(Matrix* m, pathrank::Rng& rng) {
  const float limit = std::sqrt(
      6.0f / static_cast<float>(m->rows() + m->cols()));
  UniformInit(m, limit, rng);
}

}  // namespace pathrank::nn
