// Mini-batch training loop for PathRank. There is one recipe: MSE
// regression against the weighted-Jaccard ground truth (plus, in
// multi-task mode, MSE on the auxiliary heads scaled by aux_loss_weight);
// Adam with beta1 0.9, beta2 0.999 and epsilon 1e-8; a cosine learning-rate
// schedule from learning_rate down to learning_rate / 100; a global
// gradient-norm clip of 5.0 before every step; and validation-based early
// stopping with best-weight restoration.
#pragma once

#include <vector>

#include "core/config.h"
#include "core/evaluator.h"
#include "core/model.h"
#include "data/batcher.h"
#include "data/dataset.h"

namespace pathrank::core {

/// Per-epoch training record.
struct EpochRecord {
  int epoch = 0;
  double train_loss = 0.0;
  double val_mae = 0.0;
  double val_tau = 0.0;
  double learning_rate = 0.0;
  double seconds = 0.0;
};

/// Full training history.
struct TrainHistory {
  std::vector<EpochRecord> epochs;
  int best_epoch = -1;
  double best_val_mae = 0.0;
};

/// Trains `model` in place and returns the history. `validation` may be
/// empty, in which case early stopping is disabled and the final weights
/// are kept.
TrainHistory TrainPathRank(PathRankModel& model,
                           const data::RankingDataset& train,
                           const data::RankingDataset& validation,
                           const TrainerConfig& config);

}  // namespace pathrank::core
