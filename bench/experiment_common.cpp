#include "experiment_common.h"

#include <cstdio>

#include "common/env.h"
#include "common/stopwatch.h"

namespace pathrank::bench {

ExperimentScale ResolveScale() {
  const std::string name = EnvString("PATHRANK_BENCH_SCALE", "small");
  ExperimentScale s;
  s.name = name;
  if (name == "tiny") {
    s.net_rows = 14;
    s.net_cols = 14;
    s.num_drivers = 15;
    s.num_trips = 220;
    s.candidates_k = 6;
    s.max_path_vertices = 36;
    s.hidden_size = 32;
    s.train_epochs = 14;
    s.node2vec_walks = 8;
    s.node2vec_walk_length = 25;
    s.node2vec_epochs = 3;
  } else if (name == "paper") {
    s.net_rows = 34;
    s.net_cols = 36;
    s.num_drivers = 183;  // the paper's vehicle count
    s.num_trips = 2000;
    s.candidates_k = 10;
    s.max_path_vertices = 70;
    s.hidden_size = 128;
    s.train_epochs = 30;
    s.node2vec_walks = 10;
    s.node2vec_walk_length = 40;
    s.node2vec_epochs = 3;
  } else {  // small (default)
    s.net_rows = 20;
    s.net_cols = 20;
    s.num_drivers = 40;
    s.num_trips = 700;
    s.candidates_k = 10;
    s.max_path_vertices = 45;
    s.hidden_size = 64;
    s.train_epochs = 12;
    s.node2vec_walks = 8;
    s.node2vec_walk_length = 30;
    s.node2vec_epochs = 2;
  }
  return s;
}

Workload BuildWorkload(const ExperimentScale& scale,
                       data::CandidateStrategy strategy, uint64_t seed) {
  Workload w;
  w.strategy = strategy;

  graph::SyntheticNetworkConfig net_cfg;
  net_cfg.rows = scale.net_rows;
  net_cfg.cols = scale.net_cols;
  net_cfg.seed = seed;
  w.network = graph::BuildSyntheticNetwork(net_cfg);

  traj::TrajectoryGeneratorConfig traj_cfg;
  traj_cfg.num_drivers = scale.num_drivers;
  traj_cfg.num_trips = scale.num_trips;
  traj_cfg.min_trip_distance_m = 2500.0;
  traj_cfg.max_path_vertices = scale.max_path_vertices;
  traj_cfg.seed = seed + 1;
  w.trips = traj::TrajectoryGenerator(w.network, traj_cfg).Generate();

  data::CandidateGenConfig gen_cfg;
  gen_cfg.strategy = strategy;
  gen_cfg.k = scale.candidates_k;
  gen_cfg.similarity_threshold = 0.6;
  gen_cfg.max_enumerated = 300;
  data::RankingDataset dataset;
  dataset.queries = data::GenerateQueries(w.network, w.trips, gen_cfg);

  Rng rng(seed + 2);
  w.split = data::SplitDataset(dataset, 0.7, 0.1, rng);
  return w;
}

nn::Matrix TrainEmbeddings(const graph::RoadNetwork& network,
                           const ExperimentScale& scale, int dims,
                           uint64_t seed) {
  embedding::Node2VecConfig cfg;
  cfg.walk.walk_length = scale.node2vec_walk_length;
  cfg.walk.walks_per_vertex = scale.node2vec_walks;
  cfg.skipgram.dims = dims;
  cfg.skipgram.epochs = scale.node2vec_epochs;
  cfg.seed = seed;
  return embedding::TrainNode2Vec(network, cfg);
}

ExperimentResult RunExperiment(const Workload& workload,
                               const nn::Matrix& embeddings,
                               const ExperimentScale& scale,
                               const RunSpec& spec) {
  core::PathRankConfig model_cfg;
  model_cfg.embedding_dim = static_cast<size_t>(spec.embedding_dim);
  model_cfg.hidden_size = scale.hidden_size;
  model_cfg.cell = spec.cell;
  model_cfg.bidirectional = spec.bidirectional;
  model_cfg.finetune_embedding = spec.finetune_embedding;
  model_cfg.seed = 7;

  core::PathRankModel model(workload.network.num_vertices(), model_cfg);
  model.InitializeEmbedding(embeddings);

  core::TrainerConfig train_cfg;
  train_cfg.epochs = scale.train_epochs;
  train_cfg.batch_size = 32;
  train_cfg.learning_rate = spec.learning_rate;
  train_cfg.patience = 6;
  train_cfg.seed = 17;

  ExperimentResult result;
  Stopwatch watch;
  const auto history = core::TrainPathRank(model, workload.split.train,
                                           workload.split.validation,
                                           train_cfg);
  result.train_seconds = watch.ElapsedSeconds();
  result.epochs_ran = static_cast<int>(history.epochs.size());
  result.test = core::Evaluate(model, workload.split.test);
  return result;
}

void PrintTableHeader(const std::string& title) {
  std::printf("%s\n", title.c_str());
  std::printf("%-10s %5s %8s %8s %8s %8s\n", "Strategy", "M", "MAE",
              "MARE", "tau", "rho");
  std::printf("%s\n", std::string(51, '-').c_str());
}

void PrintTableRow(const std::string& strategy, int m,
                   const ExperimentResult& result) {
  std::printf("%-10s %5d %8.4f %8.4f %8.4f %8.4f\n", strategy.c_str(), m,
              result.test.mae, result.test.mare, result.test.kendall_tau,
              result.test.spearman_rho);
  std::fflush(stdout);
  ReportTrainSeconds(strategy + " M=" + std::to_string(m),
                     result.train_seconds);
}

void ReportTrainSeconds(const std::string& row, double seconds) {
  std::fprintf(stderr, "train(s) %s: %.1f\n", row.c_str(), seconds);
}

}  // namespace pathrank::bench
