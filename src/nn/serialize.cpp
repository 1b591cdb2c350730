#include "nn/serialize.h"

#include <istream>
#include <ostream>
#include <stdexcept>

namespace pathrank::nn {
namespace {

constexpr uint32_t kMatrixMagic = 0x50524D31;  // "PRM1"

void Put32(std::ostream& out, uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(v));
}

uint32_t Get32(std::istream& in) {
  uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof(v));
  if (!in) throw std::runtime_error("truncated stream");
  return v;
}

}  // namespace

void WriteMatrix(std::ostream& out, const Matrix& m) {
  Put32(out, kMatrixMagic);
  Put32(out, static_cast<uint32_t>(m.rows()));
  Put32(out, static_cast<uint32_t>(m.cols()));
  out.write(reinterpret_cast<const char*>(m.data()),
            static_cast<std::streamsize>(m.size() * sizeof(float)));
}

Matrix ReadMatrix(std::istream& in) {
  if (Get32(in) != kMatrixMagic) {
    throw std::runtime_error("bad matrix magic");
  }
  const uint32_t rows = Get32(in);
  const uint32_t cols = Get32(in);
  if (static_cast<uint64_t>(rows) * cols > BytesLeft(in) / sizeof(float)) {
    throw std::runtime_error("truncated matrix payload");
  }
  Matrix m(rows, cols);
  in.read(reinterpret_cast<char*>(m.data()),
          static_cast<std::streamsize>(m.size() * sizeof(float)));
  if (!in) throw std::runtime_error("truncated matrix payload");
  return m;
}

uint64_t BytesLeft(std::istream& in) {
  const std::streampos here = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streampos end = in.tellg();
  in.seekg(here);
  if (here < 0 || end < here || !in) {
    throw std::runtime_error("stream is not seekable");
  }
  return static_cast<uint64_t>(end - here);
}

}  // namespace pathrank::nn
