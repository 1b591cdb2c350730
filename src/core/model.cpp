#include "core/model.h"

#include "common/logging.h"

namespace pathrank::core {
namespace {

/// pooled[b] = mean over t < len_b of the cell's cached state after step
/// t. Sums in ascending step order; RecurrentLayer::ForwardInference pools
/// in the same order.
void MeanPool(const nn::RecurrentLayer& cell,
              const std::vector<int32_t>& lengths, size_t num_steps,
              nn::Matrix* pooled) {
  const size_t batch = lengths.size();
  const size_t hidden = cell.hidden_size();
  pooled->Resize(batch, hidden);
  for (size_t t = 0; t < num_steps; ++t) {
    const nn::Matrix& h = cell.hidden_state(t);
    for (size_t b = 0; b < batch; ++b) {
      if (static_cast<int32_t>(t) >= lengths[b]) continue;
      const float* src = h.row(b);
      float* dst = pooled->row(b);
      for (size_t c = 0; c < hidden; ++c) dst[c] += src[c];
    }
  }
  for (size_t b = 0; b < batch; ++b) {
    const float inv = 1.0f / static_cast<float>(lengths[b]);
    float* dst = pooled->row(b);
    for (size_t c = 0; c < hidden; ++c) dst[c] *= inv;
  }
}

/// Expands d(loss)/d(pooled) into per-step hidden-state gradients.
void MeanPoolBackward(const nn::Matrix& d_pooled,
                      const std::vector<int32_t>& lengths, size_t num_steps,
                      std::vector<nn::Matrix>* d_h_steps) {
  const size_t batch = d_pooled.rows();
  const size_t hidden = d_pooled.cols();
  if (d_h_steps->size() != num_steps) d_h_steps->resize(num_steps);
  for (size_t t = 0; t < num_steps; ++t) {
    nn::Matrix& d = (*d_h_steps)[t];
    d.Resize(batch, hidden);  // zero-fill: padded rows must carry 0 grad
    for (size_t b = 0; b < batch; ++b) {
      if (static_cast<int32_t>(t) >= lengths[b]) continue;
      const float inv = 1.0f / static_cast<float>(lengths[b]);
      const float* src = d_pooled.row(b);
      float* dst = d.row(b);
      for (size_t c = 0; c < hidden; ++c) dst[c] = src[c] * inv;
    }
  }
}

}  // namespace

PathRankModel::PathRankModel(size_t vocab_size, const PathRankConfig& config,
                             InitMode init)
    : config_(config) {
  // Skip init (snapshots, checkpoint loads) allocates every tensor but
  // draws nothing: the caller overwrites all values. Random init draws in
  // construction order: embedding, cells, head, auxiliary heads.
  const bool skip = init == InitMode::kSkipInit;
  pathrank::Rng rng(config.seed);
  const size_t head_in =
      config.bidirectional ? 2 * config.hidden_size : config.hidden_size;
  auto make_cell = [&](const std::string& name) {
    return nn::MakeRecurrentLayer(config.cell, config.embedding_dim,
                                  config.hidden_size, skip ? nullptr : &rng,
                                  name);
  };
  auto make_head = [&](const std::string& name) {
    return skip ? std::make_unique<nn::LinearLayer>(head_in, 1, nn::kSkipInit,
                                                    name)
                : std::make_unique<nn::LinearLayer>(head_in, 1, rng, name);
  };
  embedding_ = skip ? std::make_unique<nn::EmbeddingLayer>(
                          vocab_size, config.embedding_dim, nn::kSkipInit)
                    : std::make_unique<nn::EmbeddingLayer>(
                          vocab_size, config.embedding_dim, rng);
  fwd_cell_ = make_cell("cell_fwd");
  if (config.bidirectional) bwd_cell_ = make_cell("cell_bwd");
  head_ = make_head("head");
  if (config.multi_task) {
    aux_length_head_ = make_head("aux_len");
    aux_time_head_ = make_head("aux_time");
  }
  embedding_->set_frozen(!config.finetune_embedding);
}

void PathRankModel::InitializeEmbedding(const nn::Matrix& table) {
  embedding_->LoadTable(table);
}

PathRankModel::Outputs PathRankModel::ForwardFull(
    const nn::SequenceBatch& batch) {
  PR_CHECK(batch.batch_size > 0 && batch.max_len > 0);
  batch_ = batch;
  const size_t T = batch.max_len;

  auto encode = [&](nn::RecurrentLayer& cell,
                    const nn::SequenceBatch& cell_batch,
                    std::vector<nn::Matrix>* x_steps, nn::Matrix* repr) {
    if (x_steps->size() != T) x_steps->resize(T);
    for (size_t t = 0; t < T; ++t) {
      embedding_->Lookup(cell_batch, t, &(*x_steps)[t]);
    }
    cell.Forward(*x_steps, cell_batch.lengths, repr);
    if (config_.pooling == Pooling::kMean) {
      MeanPool(cell, cell_batch.lengths, T, repr);
    }
  };
  nn::Matrix repr_fwd;
  nn::Matrix repr_bwd;
  encode(*fwd_cell_, batch_, &x_steps_, &repr_fwd);
  if (config_.bidirectional) {
    batch_rev_ = batch_.Reversed();
    encode(*bwd_cell_, batch_rev_, &x_steps_rev_, &repr_bwd);
  }
  ApplyHeads(repr_fwd, repr_bwd, &concat_h_, &logits_, &outputs_);
  return outputs_;
}

void PathRankModel::ApplyHeads(const nn::Matrix& repr_fwd,
                               const nn::Matrix& repr_bwd, nn::Matrix* concat,
                               nn::Matrix* logits, Outputs* out) const {
  const size_t B = repr_fwd.rows();
  const size_t H = config_.hidden_size;
  if (config_.bidirectional) {
    concat->ResizeNoZero(B, 2 * H);  // fully overwritten below
    for (size_t b = 0; b < B; ++b) {
      float* dst = concat->row(b);
      std::copy(repr_fwd.row(b), repr_fwd.row(b) + H, dst);
      std::copy(repr_bwd.row(b), repr_bwd.row(b) + H, dst + H);
    }
  } else {
    *concat = repr_fwd;
  }

  auto head = [&](const nn::LinearLayer& layer, std::vector<float>* probs) {
    layer.ForwardInference(*concat, logits);
    nn::SigmoidInPlace(logits);  // [B x 1]: one probability per row
    probs->assign(logits->data(), logits->data() + B);
  };
  head(*head_, &out->scores);
  out->aux_length.clear();
  out->aux_time.clear();
  if (config_.multi_task) {
    head(*aux_length_head_, &out->aux_length);
    head(*aux_time_head_, &out->aux_time);
  }
}

InferenceTables PathRankModel::BuildInferenceTables() const {
  InferenceTables tables;
  tables.fwd = fwd_cell_->BuildInputTable(embedding_->table());
  if (bwd_cell_ != nullptr) {
    tables.bwd = bwd_cell_->BuildInputTable(embedding_->table());
  }
  return tables;
}

std::vector<float> PathRankModel::ForwardInference(
    const nn::SequenceBatch& batch, const InferenceTables& tables,
    InferenceScratch* scratch) const {
  return ForwardInferenceFull(batch, tables, scratch).scores;
}

PathRankModel::Outputs PathRankModel::ForwardInferenceFull(
    const nn::SequenceBatch& batch, const InferenceTables& tables,
    InferenceScratch* scratch) const {
  PR_CHECK(batch.batch_size > 0 && batch.max_len > 0);
  InferenceScratch& s = *scratch;
  const bool mean_pool = config_.pooling == Pooling::kMean;

  fwd_cell_->ForwardInference(tables.fwd, batch, mean_pool, &s.fwd_cell,
                              &s.repr_fwd);
  if (config_.bidirectional) {
    s.batch_rev = batch.Reversed();
    bwd_cell_->ForwardInference(tables.bwd, s.batch_rev, mean_pool,
                                &s.bwd_cell, &s.repr_bwd);
  }
  Outputs out;
  ApplyHeads(s.repr_fwd, s.repr_bwd, &s.concat_h, &s.logits, &out);
  return out;
}

void PathRankModel::BackwardFull(const std::vector<float>& d_scores,
                                 const std::vector<float>& d_aux_length,
                                 const std::vector<float>& d_aux_time) {
  const size_t B = batch_.batch_size;
  const size_t H = config_.hidden_size;
  const size_t T = batch_.max_len;
  PR_CHECK(d_scores.size() == B) << "gradient batch-size mismatch";
  if (!config_.multi_task) {
    PR_CHECK(d_aux_length.empty() && d_aux_time.empty())
        << "auxiliary gradients require multi_task";
  }

  // Through a head's sigmoid, dL/dlogit = dL/ds * s * (1 - s); writes the
  // head's input gradient into `d_in`.
  auto backprop_head = [&](nn::LinearLayer& head,
                           const std::vector<float>& probs,
                           const std::vector<float>& d_probs,
                           nn::Matrix* d_in) {
    PR_CHECK(d_probs.size() == B);
    nn::Matrix d_logits(B, 1);
    for (size_t b = 0; b < B; ++b) {
      const float s = probs[b];
      d_logits.at(b, 0) = d_probs[b] * s * (1.0f - s);
    }
    head.Backward(concat_h_, d_logits, d_in);
  };
  nn::Matrix d_concat;
  backprop_head(*head_, outputs_.scores, d_scores, &d_concat);
  // Auxiliary heads add to the shared representation's gradient.
  nn::Matrix d_aux;
  if (!d_aux_length.empty()) {
    backprop_head(*aux_length_head_, outputs_.aux_length, d_aux_length, &d_aux);
    d_concat.Add(d_aux);
  }
  if (!d_aux_time.empty()) {
    backprop_head(*aux_time_head_, outputs_.aux_time, d_aux_time, &d_aux);
    d_concat.Add(d_aux);
  }

  std::vector<nn::Matrix> d_x_steps;
  auto backprop_cell = [&](nn::RecurrentLayer& cell, const nn::Matrix& d_repr,
                           const nn::SequenceBatch& cell_batch) {
    if (config_.pooling == Pooling::kMean) {
      std::vector<nn::Matrix> d_h_steps;
      MeanPoolBackward(d_repr, cell_batch.lengths, T, &d_h_steps);
      cell.BackwardSteps(d_h_steps, &d_x_steps);
    } else {
      cell.Backward(d_repr, &d_x_steps);
    }
    for (size_t t = 0; t < T; ++t) {
      embedding_->AccumulateGrad(cell_batch, t, d_x_steps[t]);
    }
  };

  if (config_.bidirectional) {
    nn::Matrix d_repr_fwd(B, H);
    nn::Matrix d_repr_bwd(B, H);
    for (size_t b = 0; b < B; ++b) {
      const float* src = d_concat.row(b);
      std::copy(src, src + H, d_repr_fwd.row(b));
      std::copy(src + H, src + 2 * H, d_repr_bwd.row(b));
    }
    backprop_cell(*fwd_cell_, d_repr_fwd, batch_);
    backprop_cell(*bwd_cell_, d_repr_bwd, batch_rev_);
  } else {
    backprop_cell(*fwd_cell_, d_concat, batch_);
  }
}

void PathRankModel::CopyParametersFrom(const PathRankModel& other) {
  const nn::ConstParameterList src = other.Parameters();
  const nn::ParameterList dst = Parameters();
  PR_CHECK(src.size() == dst.size()) << "architecture mismatch";
  for (size_t i = 0; i < src.size(); ++i) {
    PR_CHECK(dst[i]->value.SameShape(src[i]->value))
        << dst[i]->name << " shape mismatch";
    dst[i]->value = src[i]->value;
  }
}

nn::ConstParameterList PathRankModel::Parameters() const {
  nn::ConstParameterList params = {&embedding_->parameter()};
  // Bound as const, so every layer returns its const walk.
  const auto append = [&params](const auto& layer) {
    const nn::ConstParameterList more = layer.Parameters();
    params.insert(params.end(), more.begin(), more.end());
  };
  append(*fwd_cell_);
  if (bwd_cell_ != nullptr) append(*bwd_cell_);
  append(*head_);
  if (aux_length_head_ != nullptr) {
    append(*aux_length_head_);
    append(*aux_time_head_);
  }
  return params;
}

size_t PathRankModel::NumParameters() const {
  size_t total = 0;
  for (const nn::Parameter* p : Parameters()) total += p->value.size();
  return total;
}

}  // namespace pathrank::core
