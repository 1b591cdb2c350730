// Configuration of the PathRank model and trainer.
#pragma once

#include <cstdint>
#include <string>

#include "nn/recurrent.h"

namespace pathrank::core {

/// How the GRU's hidden states are reduced to one path representation.
/// kFinalState is the paper's architecture (the RNN's last hidden state
/// feeds the FC); kMean averages all hidden states H_1..H_Z (another
/// reading of the poster figure). On the calibrated benchmark workload
/// final-state wins (see bench_pooling_ablation), so it is the default.
enum class Pooling {
  kFinalState,  // h_Z only (paper)
  kMean,        // average of h_1..h_Z over the true length
};

/// Model architecture (the paper's PathRank: embedding -> GRU -> FC).
struct PathRankConfig {
  /// Vertex-embedding feature size (the paper's M; evaluated at 64, 128).
  size_t embedding_dim = 64;
  /// Recurrent hidden state size.
  size_t hidden_size = 128;
  /// Recurrent cell (the paper uses GRU; RNN/LSTM for ablation).
  nn::CellType cell = nn::CellType::kGru;
  /// Two GRU chains (forward + backward) as in the paper's overview
  /// figure; the two path representations are concatenated before the FC
  /// head.
  bool bidirectional = true;
  /// Hidden-state reduction feeding the FC head.
  Pooling pooling = Pooling::kFinalState;
  /// PR-A2 when true (embedding matrix B updated during training);
  /// PR-A1 when false (B frozen at its node2vec initialisation).
  bool finetune_embedding = true;
  /// Multi-task learning (the full paper's PR-M direction): two auxiliary
  /// heads on the shared path representation predict the candidate's
  /// normalised length and travel time. The auxiliary signal regularises
  /// the representation towards physical path properties.
  bool multi_task = false;
  /// Weight of each auxiliary loss relative to the similarity loss.
  double aux_loss_weight = 0.3;
  /// Parameter-init seed.
  uint64_t seed = 7;

  /// "PR-A1" / "PR-A2" as used in the paper's tables.
  std::string VariantName() const {
    return finetune_embedding ? "PR-A2" : "PR-A1";
  }
};

/// Optimisation settings. The recipe itself is fixed (see
/// core/trainer.h); these set its length, batch, step size, early
/// stopping, seed and logging.
struct TrainerConfig {
  int epochs = 10;
  size_t batch_size = 32;
  /// Adam's learning rate at epoch 0; the cosine schedule ends at 1/100.
  double learning_rate = 1e-3;
  /// Early stopping: stop after `patience` epochs without validation-MAE
  /// improvement (0 disables). The best-epoch weights are restored.
  int patience = 3;
  /// Shuffling seed.
  uint64_t seed = 17;
  /// Log per-epoch progress at INFO level.
  bool verbose = false;
};

}  // namespace pathrank::core
