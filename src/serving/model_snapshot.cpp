#include "serving/model_snapshot.h"

namespace pathrank::serving {

ModelSnapshot::ModelSnapshot(const core::PathRankModel& model)
    : model_(std::make_unique<core::PathRankModel>(
          model.vocab_size(), model.config(), core::InitMode::kSkipInit)) {
  model_->CopyParametersFrom(model);
  tables_ = model_->BuildInferenceTables();
}

std::shared_ptr<const ModelSnapshot> ModelSnapshot::Capture(
    const core::PathRankModel& model) {
  return std::make_shared<const ModelSnapshot>(model);
}

}  // namespace pathrank::serving
