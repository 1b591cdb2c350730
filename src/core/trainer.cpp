#include "core/trainer.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/scheduler.h"

namespace pathrank::core {
namespace {

/// Global gradient-norm clip applied before every Adam step.
constexpr double kClipNorm = 5.0;

/// Copies parameter values into `snap`, reusing its storage (the snapshot
/// is refreshed on every validation improvement, so reallocation here was
/// measurable on small workloads).
void SnapshotValuesInto(const nn::ParameterList& params,
                        std::vector<nn::Matrix>* snap) {
  snap->resize(params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    nn::Matrix& dst = (*snap)[i];
    const nn::Matrix& src = params[i]->value;
    dst.ResizeNoZero(src.rows(), src.cols());
    std::copy(src.data(), src.data() + src.size(), dst.data());
  }
}

void RestoreValues(const nn::ParameterList& params,
                   const std::vector<nn::Matrix>& snap) {
  PR_CHECK(snap.size() == params.size());
  for (size_t i = 0; i < params.size(); ++i) {
    params[i]->value = snap[i];
  }
}

}  // namespace

TrainHistory TrainPathRank(PathRankModel& model,
                           const data::RankingDataset& train,
                           const data::RankingDataset& validation,
                           const TrainerConfig& config) {
  PR_CHECK(config.epochs >= 1);
  pathrank::Rng rng(config.seed);
  data::Batcher batcher(data::FlattenDataset(train), config.batch_size);

  const double min_lr = config.learning_rate * 0.01;

  // One model, one optimizer, one step per batch: the mini-batch is the
  // method's, whatever the thread count. Training runs serially on the
  // calling thread (only validation's Evaluate runs a ParallelFor, over
  // the const inference path), so it is bit-reproducible for a fixed seed
  // at any thread count.
  const nn::ParameterList params = model.Parameters();
  nn::Adam optimizer(config.learning_rate);
  std::vector<float> d_scores;
  std::vector<float> d_aux_length;  // both stay empty unless multi-task
  std::vector<float> d_aux_time;

  TrainHistory history;
  history.best_val_mae = std::numeric_limits<double>::infinity();
  std::vector<nn::Matrix> best_weights;
  bool have_best = false;
  int epochs_since_best = 0;
  const bool use_validation = !validation.queries.empty();

  const bool multi_task = model.config().multi_task;
  const auto aux_weight = static_cast<float>(model.config().aux_loss_weight);

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    pathrank::Stopwatch watch;
    const double lr =
        nn::CosineLearningRate(config.learning_rate, min_lr, epoch,
                               config.epochs);
    optimizer.set_learning_rate(lr);
    batcher.Reshuffle(rng);

    double loss_sum = 0.0;
    size_t example_count = 0;
    for (size_t b = 0; b < batcher.num_batches(); ++b) {
      const data::ModelBatch batch = batcher.GetBatch(b);
      const auto outputs = model.ForwardFull(batch.sequences);
      double loss = nn::MseLoss(outputs.scores, batch.labels, &d_scores);
      if (multi_task) {
        // Auxiliary regression on the candidate's normalised length and
        // travel time; gradients scaled by the auxiliary weight.
        loss += aux_weight * nn::MseLoss(outputs.aux_length,
                                         batch.norm_lengths, &d_aux_length);
        loss += aux_weight *
                nn::MseLoss(outputs.aux_time, batch.norm_times, &d_aux_time);
        for (float& grad : d_aux_length) grad *= aux_weight;
        for (float& grad : d_aux_time) grad *= aux_weight;
      }
      loss_sum += loss * static_cast<double>(outputs.scores.size());
      example_count += outputs.scores.size();

      nn::ZeroGradients(params);
      model.BackwardFull(d_scores, d_aux_length, d_aux_time);
      nn::ClipGradientNorm(params, kClipNorm);
      optimizer.Step(params);
    }

    EpochRecord record;
    record.epoch = epoch;
    record.train_loss = loss_sum / static_cast<double>(example_count);
    record.learning_rate = lr;

    if (use_validation) {
      // Validation scores through the const inference path, in parallel
      // chunks with per-chunk scratch.
      const EvalResult val = Evaluate(model, validation);
      record.val_mae = val.mae;
      record.val_tau = val.kendall_tau;
      if (val.mae < history.best_val_mae) {
        history.best_val_mae = val.mae;
        history.best_epoch = epoch;
        SnapshotValuesInto(params, &best_weights);
        have_best = true;
        epochs_since_best = 0;
      } else {
        ++epochs_since_best;
      }
    }
    record.seconds = watch.ElapsedSeconds();
    history.epochs.push_back(record);

    if (config.verbose) {
      PR_LOG_INFO << "epoch " << epoch << " loss=" << record.train_loss
                  << (use_validation
                          ? " val_mae=" + std::to_string(record.val_mae)
                          : "")
                  << " lr=" << record.learning_rate << " ("
                  << record.seconds << "s)";
    }
    if (use_validation && config.patience > 0 &&
        epochs_since_best >= config.patience) {
      break;
    }
  }

  if (use_validation && have_best) {
    RestoreValues(params, best_weights);
  }
  return history;
}

}  // namespace pathrank::core
