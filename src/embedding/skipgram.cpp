#include "embedding/skipgram.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "embedding/alias_table.h"

namespace pathrank::embedding {
namespace {

/// Numerically safe logistic.
inline float Sigmoid(float x) {
  if (x > 8.0f) return 1.0f;
  if (x < -8.0f) return 0.0f;
  return 1.0f / (1.0f + std::exp(-x));
}

/// SGD state for one training run.
struct SgnsContext {
  const std::vector<std::vector<graph::VertexId>>* corpus = nullptr;
  const SkipGramConfig* config = nullptr;
  const AliasTable* negative_table = nullptr;
  size_t dims = 0;
  double total_steps = 0.0;
};

/// Runs the word2vec SGNS inner loop over the walks in `walk_order`,
/// updating `in`/`out` in place. `step` is the global token index of the
/// first token; the learning rate decays linearly over ctx.total_steps.
void TrainWalks(const SgnsContext& ctx, const std::vector<size_t>& walk_order,
                double step, nn::Matrix* in, nn::Matrix* out,
                pathrank::Rng& rng, std::vector<float>& grad_center) {
  const SkipGramConfig& config = *ctx.config;
  const size_t dims = ctx.dims;
  for (size_t wi : walk_order) {
    const auto& walk = (*ctx.corpus)[wi];
    for (size_t pos = 0; pos < walk.size(); ++pos, ++step) {
      const double lr_frac = 1.0 - step / ctx.total_steps;
      const float lr =
          static_cast<float>(config.lr0 * std::max(lr_frac, 0.01));
      // Dynamic window shrink (word2vec trick): uniform in [1, window].
      const int w = 1 + static_cast<int>(rng.NextBounded(
                            static_cast<uint64_t>(config.window)));
      const size_t center = walk[pos];
      float* v_in = in->row(center);

      const size_t lo = pos >= static_cast<size_t>(w) ? pos - w : 0;
      const size_t hi =
          std::min(walk.size() - 1, pos + static_cast<size_t>(w));
      for (size_t ctx_pos = lo; ctx_pos <= hi; ++ctx_pos) {
        if (ctx_pos == pos) continue;
        std::fill(grad_center.begin(), grad_center.end(), 0.0f);
        // One positive + `negatives` negative targets.
        for (int neg = -1; neg < config.negatives; ++neg) {
          size_t target;
          float label;
          if (neg < 0) {
            target = walk[ctx_pos];
            label = 1.0f;
          } else {
            target = ctx.negative_table->Sample(rng);
            if (target == center) continue;
            label = 0.0f;
          }
          float* v_out = out->row(target);
          float dot = 0.0f;
          for (size_t d = 0; d < dims; ++d) dot += v_in[d] * v_out[d];
          const float g = (label - Sigmoid(dot)) * lr;
          for (size_t d = 0; d < dims; ++d) {
            grad_center[d] += g * v_out[d];
            v_out[d] += g * v_in[d];
          }
        }
        for (size_t d = 0; d < dims; ++d) v_in[d] += grad_center[d];
      }
    }
  }
}

}  // namespace

nn::Matrix TrainSkipGram(
    const std::vector<std::vector<graph::VertexId>>& corpus,
    size_t vocab_size, const SkipGramConfig& config, pathrank::Rng& rng) {
  PR_CHECK(config.dims > 0);
  PR_CHECK(config.window >= 1);
  PR_CHECK(config.negatives >= 1);
  const auto dims = static_cast<size_t>(config.dims);

  // Unigram^power negative-sampling distribution.
  std::vector<double> counts(vocab_size, 0.0);
  size_t total_tokens = 0;
  for (const auto& walk : corpus) {
    for (graph::VertexId v : walk) {
      PR_CHECK(static_cast<size_t>(v) < vocab_size);
      counts[v] += 1.0;
      ++total_tokens;
    }
  }
  PR_CHECK(total_tokens > 0) << "empty corpus";
  for (double& c : counts) c = std::pow(c, config.unigram_power);
  const AliasTable negative_table(counts);

  // word2vec-style init: input U(-0.5/d, 0.5/d), output zero.
  nn::Matrix in(vocab_size, dims);
  nn::Matrix out(vocab_size, dims);
  nn::UniformInit(&in, 0.5f / static_cast<float>(dims), rng);

  SgnsContext ctx;
  ctx.corpus = &corpus;
  ctx.config = &config;
  ctx.negative_table = &negative_table;
  ctx.dims = dims;
  ctx.total_steps = static_cast<double>(config.epochs) *
                    static_cast<double>(total_tokens);

  std::vector<size_t> walk_order(corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) walk_order[i] = i;
  std::vector<float> grad_center(dims);

  // Classic serial SGD, one pass over the shuffled walks per epoch, so
  // the table depends on the seed alone, never on the pool size. The
  // per-epoch fork keeps a seed's table, and every checkpoint trained
  // from it, bitwise stable.
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.Shuffle(walk_order);
    pathrank::Rng epoch_rng = rng.Fork();
    TrainWalks(ctx, walk_order,
               static_cast<double>(epoch) * static_cast<double>(total_tokens),
               &in, &out, epoch_rng, grad_center);
  }
  return in;
}

}  // namespace pathrank::embedding
