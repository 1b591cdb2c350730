// End-to-end pipeline test on a small network: synthesise trajectories,
// generate candidates, embed, train PathRank and verify it actually learns
// to rank (tau well above zero, MAE well below the label spread) — a
// miniature of the paper's experimental protocol.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "pathrank.h"

namespace pathrank {
namespace {

struct PipelineOutput {
  core::EvalResult test_result;
  core::TrainHistory history;
};

PipelineOutput RunPipeline(bool finetune_embedding,
                           data::CandidateStrategy strategy) {
  graph::SyntheticNetworkConfig net_cfg;
  net_cfg.rows = 14;
  net_cfg.cols = 14;
  net_cfg.seed = 5;
  const auto network = graph::BuildSyntheticNetwork(net_cfg);

  traj::TrajectoryGeneratorConfig traj_cfg;
  traj_cfg.num_drivers = 12;
  traj_cfg.num_trips = 150;
  traj_cfg.min_trip_distance_m = 2500.0;
  traj_cfg.max_path_vertices = 40;
  traj_cfg.seed = 6;
  const auto trips = traj::TrajectoryGenerator(network, traj_cfg).Generate();

  data::CandidateGenConfig gen_cfg;
  gen_cfg.strategy = strategy;
  gen_cfg.k = 6;
  gen_cfg.max_enumerated = 150;
  data::RankingDataset dataset;
  dataset.queries = data::GenerateQueries(network, trips, gen_cfg);

  Rng rng(7);
  const auto split = data::SplitDataset(dataset, 0.7, 0.1, rng);

  embedding::Node2VecConfig n2v;
  n2v.walk.walk_length = 20;
  n2v.walk.walks_per_vertex = 6;
  n2v.skipgram.dims = 16;
  n2v.skipgram.epochs = 2;
  n2v.seed = 8;
  const auto table = embedding::TrainNode2Vec(network, n2v);

  core::PathRankConfig model_cfg;
  model_cfg.embedding_dim = 16;
  model_cfg.hidden_size = 32;
  model_cfg.finetune_embedding = finetune_embedding;
  model_cfg.seed = 9;
  core::PathRankModel model(network.num_vertices(), model_cfg);
  model.InitializeEmbedding(table);

  core::TrainerConfig train_cfg;
  train_cfg.epochs = 25;
  train_cfg.batch_size = 32;
  train_cfg.learning_rate = 3e-3;
  train_cfg.patience = 0;  // fixed schedule for determinism
  train_cfg.seed = 10;
  PipelineOutput out;
  out.history = core::TrainPathRank(model, split.train, split.validation,
                                    train_cfg);
  out.test_result = core::Evaluate(model, split.test);
  return out;
}

TEST(Integration, PathRankLearnsToRank) {
  const auto out =
      RunPipeline(true, data::CandidateStrategy::kDiversifiedTopK);
  // Training loss must drop substantially.
  ASSERT_GE(out.history.epochs.size(), 3u);
  EXPECT_LT(out.history.epochs.back().train_loss,
            out.history.epochs.front().train_loss * 0.8);
  // Test metrics: clearly better than chance.
  EXPECT_LT(out.test_result.mae, 0.22);
  EXPECT_GT(out.test_result.kendall_tau, 0.25);
  EXPECT_GT(out.test_result.spearman_rho, 0.3);
  EXPECT_GT(out.test_result.num_queries, 10u);
}

TEST(Integration, TrainedModelBeatsUntrainedModel) {
  graph::SyntheticNetworkConfig net_cfg;
  net_cfg.rows = 12;
  net_cfg.cols = 12;
  const auto network = graph::BuildSyntheticNetwork(net_cfg);
  traj::TrajectoryGeneratorConfig traj_cfg;
  traj_cfg.num_drivers = 8;
  traj_cfg.num_trips = 60;
  traj_cfg.min_trip_distance_m = 2200.0;
  traj_cfg.max_path_vertices = 40;
  const auto trips = traj::TrajectoryGenerator(network, traj_cfg).Generate();
  data::CandidateGenConfig gen_cfg;
  gen_cfg.k = 5;
  gen_cfg.max_enumerated = 120;
  data::RankingDataset dataset;
  dataset.queries = data::GenerateQueries(network, trips, gen_cfg);

  // The test split holds about 15 queries, so one seed partly measures
  // noise. Shift the split, init and shuffle seeds together and require
  // both improvements at every offset; offset 0 is the original case.
  for (uint64_t offset = 0; offset < 5; ++offset) {
    SCOPED_TRACE("seed offset " + std::to_string(offset));
    Rng rng(20 + offset);
    const auto split = data::SplitDataset(dataset, 0.75, 0.0, rng);

    core::PathRankConfig model_cfg;
    model_cfg.embedding_dim = 12;
    model_cfg.hidden_size = 16;
    model_cfg.seed = 21 + offset;
    core::PathRankModel model(network.num_vertices(), model_cfg);
    const auto before = core::Evaluate(model, split.test);

    core::TrainerConfig train_cfg;
    train_cfg.epochs = 8;
    train_cfg.learning_rate = 3e-3;
    train_cfg.patience = 0;
    train_cfg.seed = 17 + offset;  // 17 is the TrainerConfig default
    core::TrainPathRank(model, split.train, {}, train_cfg);
    const auto after = core::Evaluate(model, split.test);

    EXPECT_LT(after.mae, before.mae);
    EXPECT_GT(after.kendall_tau, before.kendall_tau);
  }
}

TEST(Integration, EvaluateIsDeterministic) {
  const auto a = RunPipeline(false, data::CandidateStrategy::kTopK);
  const auto b = RunPipeline(false, data::CandidateStrategy::kTopK);
  EXPECT_DOUBLE_EQ(a.test_result.mae, b.test_result.mae);
  EXPECT_DOUBLE_EQ(a.test_result.kendall_tau, b.test_result.kendall_tau);
}

}  // namespace
}  // namespace pathrank
