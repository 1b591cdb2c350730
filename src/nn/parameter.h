// Named trainable parameter (value + gradient) and parameter registry.
// Layers expose their parameters through Parameters(); optimizers iterate
// the registry.
#pragma once

#include <string>
#include <vector>

#include "nn/matrix.h"

namespace pathrank::nn {

/// One trainable tensor. The gradient always has the value's shape.
struct Parameter {
  std::string name;
  Matrix value;
  Matrix grad;
  /// Frozen parameters receive gradients but are skipped by optimizers
  /// (used by PR-A1 to keep the embedding matrix fixed).
  bool frozen = false;

  Parameter() = default;
  Parameter(std::string n, size_t rows, size_t cols)
      : name(std::move(n)), value(rows, cols), grad(rows, cols) {}

  void ZeroGrad() { grad.Zero(); }
};

/// Non-owning list of parameters (layers own their Parameter members).
using ParameterList = std::vector<Parameter*>;

/// Read-only view of a parameter list — the inference/serving side of the
/// API (snapshots, checkpointing) walks parameters without mutation
/// rights.
using ConstParameterList = std::vector<const Parameter*>;

/// The mutable view of an owner's const parameter walk. Each owner writes
/// its list once, as `Parameters() const`; its mutable `Parameters()`
/// passes that walk through here, which is sound because the owner is
/// then non-const.
ParameterList MutableParameters(const ConstParameterList& params);

/// Tag selecting a construction path that skips random weight
/// initialisation. Used by snapshot builders and checkpoint loads whose
/// values are immediately overwritten (CopyParametersFrom, LoadModel),
/// saving O(vocab x dim) RNG draws per copy.
struct SkipInit {};
inline constexpr SkipInit kSkipInit{};

/// Sum of squared gradient norms across a list. Frozen parameters are
/// excluded: optimizers never apply their gradients, so they must not
/// consume clip budget either.
double GradientSquaredNorm(const ParameterList& params);

/// Scales all non-frozen gradients so their global L2 norm is at most
/// `max_norm`. Returns the pre-clip norm.
double ClipGradientNorm(const ParameterList& params, double max_norm);

/// Zeroes every gradient in the list.
void ZeroGradients(const ParameterList& params);

}  // namespace pathrank::nn
