// The PathRank scoring model (paper Fig. "PathRank Overview"):
//
//   vertex ids --EmbeddingLayer(B)--> x_1..x_Z --GRU--> h_Z --FC+sigmoid-->
//   estimated similarity score in (0, 1)
//
// Bidirectional mode runs a second chain over the reversed sequence and
// concatenates both final states (the figure's two GRU rows). The embedding
// matrix B is initialised from node2vec and frozen (PR-A1) or fine-tuned
// (PR-A2).
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/config.h"
#include "nn/embedding_layer.h"
#include "nn/linear.h"
#include "nn/recurrent.h"
#include "nn/sequence_batch.h"

namespace pathrank::core {

/// How a PathRankModel's weights are produced at construction.
enum class InitMode {
  kRandomInit,  // seeded random init (training from scratch)
  kSkipInit,    // weights left zero — for snapshots and checkpoint
                // loads whose values are copied in wholesale, skipping
                // O(vocab x dim) RNG draws per copy
};

/// The frozen input-projection tables of both chains (nn::InputTable):
/// what the const inference path reads instead of embedding rows. Built
/// once per frozen weight set by PathRankModel::BuildInferenceTables and
/// shared read-only by every scoring thread. Each costs vocab * gates *
/// hidden floats (gates: GRU 3, RNN 1, LSTM 4), so it grows linearly with
/// the network's vertex count.
struct InferenceTables {
  nn::InputTable fwd;
  nn::InputTable bwd;  // empty when unidirectional
};

/// Caller-owned activation buffers for the const inference path
/// (ForwardInference). The model never writes activations into itself on
/// that path, so one shared model plus one InferenceScratch per thread
/// gives race-free concurrent scoring. Buffers are reshaped, not
/// reallocated, when batch geometry repeats across calls.
struct InferenceScratch {
  nn::SequenceBatch batch_rev;
  nn::RecurrentScratch fwd_cell;
  nn::RecurrentScratch bwd_cell;
  nn::Matrix repr_fwd;
  nn::Matrix repr_bwd;
  nn::Matrix concat_h;
  nn::Matrix logits;
};

/// Trainable path-scoring network.
class PathRankModel {
 public:
  /// Builds the network for `vocab_size` vertices.
  PathRankModel(size_t vocab_size, const PathRankConfig& config,
                InitMode init = InitMode::kRandomInit);

  /// Initialises the embedding matrix B from pre-trained vectors
  /// [vocab_size x embedding_dim] (the spatial network embedding).
  void InitializeEmbedding(const nn::Matrix& table);

  /// All model outputs for one batch. Auxiliary vectors are empty unless
  /// `multi_task` is enabled.
  struct Outputs {
    std::vector<float> scores;      // estimated similarity, in (0, 1)
    std::vector<float> aux_length;  // normalised path length, in (0, 1)
    std::vector<float> aux_time;    // normalised travel time, in (0, 1)
  };

  /// Scores a batch of vertex sequences, one score per row, with the
  /// auxiliary-head outputs. Caches activations for a subsequent
  /// BackwardFull.
  Outputs ForwardFull(const nn::SequenceBatch& batch);

  /// Projects the embedding through each chain's input weights. The
  /// tables are valid for these exact weights: rebuild after any change.
  InferenceTables BuildInferenceTables() const;

  /// Inference-only forward over `tables` (built from this model's current
  /// weights). Each row's arithmetic equals ForwardFull's, so scores are
  /// bitwise identical, while rows that share a prefix (or, in the
  /// backward chain, a suffix) share its recurrent steps. All activations
  /// land in the caller-owned `scratch`, so the model is never mutated:
  /// many threads may score through one shared const model and one shared
  /// `tables` concurrently, each with its own scratch. No BackwardFull may
  /// follow (use ForwardFull for training).
  std::vector<float> ForwardInference(const nn::SequenceBatch& batch,
                                      const InferenceTables& tables,
                                      InferenceScratch* scratch) const;

  /// Inference forward including the auxiliary-head outputs.
  Outputs ForwardInferenceFull(const nn::SequenceBatch& batch,
                               const InferenceTables& tables,
                               InferenceScratch* scratch) const;

  /// Backpropagates d(loss)/d(score), and the auxiliary-head gradients
  /// (multi-task training), for the last ForwardFull batch and
  /// accumulates parameter gradients. Empty aux gradients are treated as
  /// zero.
  void BackwardFull(const std::vector<float>& d_scores,
                    const std::vector<float>& d_aux_length,
                    const std::vector<float>& d_aux_time);

  /// Every parameter in checkpoint order, a frozen embedding included
  /// (optimizers skip it) — the basis for snapshots and checkpointing.
  nn::ConstParameterList Parameters() const;

  /// The same walk with mutation rights, for training and loading.
  nn::ParameterList Parameters() {
    return nn::MutableParameters(std::as_const(*this).Parameters());
  }

  /// Copies every parameter value from `other` (must share architecture).
  /// Used by ModelSnapshot to capture and materialise immutable copies of
  /// a model.
  void CopyParametersFrom(const PathRankModel& other);

  const PathRankConfig& config() const { return config_; }
  size_t vocab_size() const { return embedding_->vocab_size(); }

  /// Total parameter count (documentation/diagnostics).
  size_t NumParameters() const;

 private:
  /// Concatenates the chains' representations into `concat` (`repr_bwd`
  /// is read only when bidirectional), then runs every head and its
  /// sigmoid into `out`. ForwardFull and ForwardInferenceFull both end
  /// here, so their head arithmetic is one code path.
  void ApplyHeads(const nn::Matrix& repr_fwd, const nn::Matrix& repr_bwd,
                  nn::Matrix* concat, nn::Matrix* logits, Outputs* out) const;

  PathRankConfig config_;
  std::unique_ptr<nn::EmbeddingLayer> embedding_;
  std::unique_ptr<nn::RecurrentLayer> fwd_cell_;
  std::unique_ptr<nn::RecurrentLayer> bwd_cell_;  // null when unidirectional
  std::unique_ptr<nn::LinearLayer> head_;
  std::unique_ptr<nn::LinearLayer> aux_length_head_;  // multi-task only
  std::unique_ptr<nn::LinearLayer> aux_time_head_;    // multi-task only

  // Forward caches.
  nn::SequenceBatch batch_;
  nn::SequenceBatch batch_rev_;
  std::vector<nn::Matrix> x_steps_;
  std::vector<nn::Matrix> x_steps_rev_;
  nn::Matrix concat_h_;  // the heads' input, read by BackwardFull
  nn::Matrix logits_;
  Outputs outputs_;
};

}  // namespace pathrank::core
