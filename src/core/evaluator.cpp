#include "core/evaluator.h"

#include "common/logging.h"
#include "common/string_util.h"
#include "common/thread_pool.h"
#include "metrics/ranking_metrics.h"

namespace pathrank::core {
namespace {

/// Scores one query's candidate set through the const inference path.
void ScoreQuery(const PathRankModel& model, const InferenceTables& tables,
                InferenceScratch* scratch, const data::RankingQuery& query,
                std::vector<double>* predicted, std::vector<double>* truth) {
  std::vector<std::vector<int32_t>> seqs;
  seqs.reserve(query.candidates.size());
  truth->reserve(query.candidates.size());
  for (const auto& cand : query.candidates) {
    std::vector<int32_t> seq;
    seq.reserve(cand.path.vertices.size());
    for (graph::VertexId v : cand.path.vertices) {
      seq.push_back(static_cast<int32_t>(v));
    }
    seqs.push_back(std::move(seq));
    truth->push_back(cand.label);
  }
  const auto batch = nn::SequenceBatch::FromSequences(seqs);
  const std::vector<float> scores =
      model.ForwardInference(batch, tables, scratch);
  predicted->assign(scores.begin(), scores.end());
}

/// Queries per chunk: below this many the dispatch overhead outweighs
/// the parallelism, so smaller sets score inline.
constexpr size_t kQueriesPerChunk = 16;

}  // namespace

std::string EvalResult::ToString() const {
  return StrFormat(
      "MAE=%.4f MARE=%.4f tau=%.4f rho=%.4f top1=%.3f ndcg=%.4f (n=%zu)",
      mae, mare, kendall_tau, spearman_rho, top1_accuracy, ndcg, num_queries);
}

EvalResult Evaluate(const PathRankModel& model,
                    const data::RankingDataset& dataset) {
  const size_t num_queries = dataset.queries.size();
  // Scores are identical for any chunking: the inference kernels are
  // bitwise stable and every chunk reads the same shared parameters and
  // tables. Metrics are accumulated in query order afterwards.
  const InferenceTables tables = model.BuildInferenceTables();
  std::vector<std::vector<double>> predicted(num_queries);
  std::vector<std::vector<double>> truth(num_queries);
  ParallelFor(0, num_queries, kQueriesPerChunk, [&](size_t lo, size_t hi) {
    InferenceScratch scratch;
    for (size_t q = lo; q < hi; ++q) {
      if (dataset.queries[q].candidates.empty()) continue;
      ScoreQuery(model, tables, &scratch, dataset.queries[q], &predicted[q],
                 &truth[q]);
    }
  });

  metrics::MetricAccumulator acc;
  for (size_t q = 0; q < num_queries; ++q) {
    if (predicted[q].empty()) continue;
    acc.AddQuery(predicted[q], truth[q]);
  }

  EvalResult result;
  result.mae = acc.mae();
  result.mare = acc.mare();
  result.kendall_tau = acc.mean_kendall_tau();
  result.spearman_rho = acc.mean_spearman_rho();
  result.top1_accuracy = acc.mean_top1();
  result.ndcg = acc.mean_ndcg();
  result.num_queries = acc.num_queries();
  return result;
}

}  // namespace pathrank::core
