// Binary (de)serialization of one matrix: the tensor record inside
// core::SaveModel checkpoints, the one checkpoint format.
#pragma once

#include <cstdint>
#include <iosfwd>

#include "nn/matrix.h"

namespace pathrank::nn {

/// Writes one matrix (shape header + row-major floats).
void WriteMatrix(std::ostream& out, const Matrix& m);

/// Reads one matrix; throws std::runtime_error on malformed input,
/// including a shape that needs more bytes than `in` has left (checked
/// before allocating).
Matrix ReadMatrix(std::istream& in);

/// Bytes between `in`'s read position and its end; `in` must be
/// seekable. Throws std::runtime_error when it is not.
uint64_t BytesLeft(std::istream& in);

}  // namespace pathrank::nn
