// Immutable, shareable view of a trained PathRank model's parameters — the
// deployment artefact of the serving stack. A snapshot is captured once
// from a (possibly still-training) model and never mutated afterwards, so
// any number of threads may score through `model()`'s const inference path
// concurrently, over the input-projection tables built at capture. Snapshots are passed by shared_ptr<const ModelSnapshot>;
// an engine keeps its snapshot alive for as long as it serves, which is
// what makes ServingEngine::SwapSnapshot safe: the exchange replaces the
// shared_ptr, in-flight queries finish on the old snapshot, and the old
// snapshot is destroyed when its last reference drops.
#pragma once

#include <memory>

#include "core/model.h"

namespace pathrank::serving {

/// Frozen copy of a model's architecture + parameter values.
class ModelSnapshot {
 public:
  /// Deep-copies `model`'s parameters (skip-init build + value copy — no
  /// RNG draws) and builds the copy's inference tables. The source model
  /// may keep training afterwards; the snapshot does not follow it.
  explicit ModelSnapshot(const core::PathRankModel& model);

  /// Convenience: capture into the shared handle the engines consume.
  static std::shared_ptr<const ModelSnapshot> Capture(
      const core::PathRankModel& model);

  const core::PathRankConfig& config() const { return model_->config(); }
  size_t vocab_size() const { return model_->vocab_size(); }
  size_t NumParameters() const { return model_->NumParameters(); }

  /// The frozen model. Only the const inference surface
  /// (ForwardInference / ForwardInferenceFull) may be used on it.
  const core::PathRankModel& model() const { return *model_; }

  /// The frozen model's input-projection tables, for ForwardInference.
  const core::InferenceTables& tables() const { return tables_; }

 private:
  // Never mutated after construction; exposed only as const.
  std::unique_ptr<core::PathRankModel> model_;
  core::InferenceTables tables_;
};

}  // namespace pathrank::serving
