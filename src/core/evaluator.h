// Evaluation protocol of the paper: per candidate set (query), compare the
// model's estimated scores against the weighted-Jaccard ground truth using
// MAE, MARE, Kendall tau and Spearman rho.
#pragma once

#include <string>
#include <vector>

#include "core/model.h"
#include "data/dataset.h"

namespace pathrank::core {

/// Aggregated evaluation results.
struct EvalResult {
  double mae = 0.0;
  double mare = 0.0;
  double kendall_tau = 0.0;
  double spearman_rho = 0.0;
  double top1_accuracy = 0.0;
  double ndcg = 0.0;
  size_t num_queries = 0;

  std::string ToString() const;
};

/// Scores every query's candidates with `model` and accumulates metrics.
/// Builds the model's inference tables once, then parallel chunks of
/// queries score through the const inference path, each with its own
/// scratch — the model and tables are shared read-only, never copied or
/// mutated.
EvalResult Evaluate(const PathRankModel& model,
                    const data::RankingDataset& dataset);

}  // namespace pathrank::core
