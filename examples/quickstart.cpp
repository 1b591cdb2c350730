// Quickstart: the full PathRank pipeline end-to-end on a small synthetic
// network, then rank candidate paths for one query.
//
//   build/examples/quickstart
//
// Steps: (1) synthesise a road network, (2) simulate driver trajectories,
// (3) generate labelled training candidates (D-TkDI), (4) train node2vec
// vertex embeddings, (5) train PathRank (PR-A2), (6) evaluate on held-out
// trajectories, (7) deploy: snapshot the trained weights into a
// thread-safe ServingEngine and rank candidates for a fresh query.
#include <cstdio>

#include "pathrank.h"

int main() {
  using namespace pathrank;

  // 1. Road network (stand-in for North Jutland).
  graph::SyntheticNetworkConfig net_cfg;
  net_cfg.rows = 16;
  net_cfg.cols = 16;
  net_cfg.seed = 1;
  const auto network = graph::BuildSyntheticNetwork(net_cfg);
  std::printf("[1/7] network: %s\n", network.Summary().c_str());

  // 2. Simulated driver trajectories (the training signal).
  traj::TrajectoryGeneratorConfig traj_cfg;
  traj_cfg.num_drivers = 15;
  traj_cfg.num_trips = 150;
  traj_cfg.min_trip_distance_m = 2500.0;
  traj_cfg.max_path_vertices = 45;
  traj_cfg.seed = 2;
  const auto trips = traj::TrajectoryGenerator(network, traj_cfg).Generate();
  std::printf("[2/7] simulated %zu trips from %d drivers\n", trips.size(),
              traj_cfg.num_drivers);

  // 3. Candidate generation with ground-truth labels.
  data::CandidateGenConfig gen_cfg;
  gen_cfg.strategy = data::CandidateStrategy::kDiversifiedTopK;
  gen_cfg.k = 6;
  data::RankingDataset dataset;
  dataset.queries = data::GenerateQueries(network, trips, gen_cfg);
  std::printf("[3/7] dataset: %s\n",
              data::StatsToString(data::ComputeStats(dataset)).c_str());

  Rng rng(3);
  const auto split = data::SplitDataset(dataset, 0.7, 0.1, rng);

  // 4. Spatial network embedding (node2vec).
  embedding::Node2VecConfig n2v;
  n2v.skipgram.dims = 32;
  n2v.walk.walks_per_vertex = 8;
  n2v.walk.walk_length = 25;
  n2v.seed = 4;
  const auto table = embedding::TrainNode2Vec(network, n2v);
  std::printf("[4/7] node2vec embeddings: %zu x %zu\n", table.rows(),
              table.cols());

  // 5. Train PathRank (PR-A2: embedding fine-tuned).
  core::PathRankConfig model_cfg;
  model_cfg.embedding_dim = 32;
  model_cfg.hidden_size = 48;
  model_cfg.finetune_embedding = true;
  core::PathRankModel model(network.num_vertices(), model_cfg);
  model.InitializeEmbedding(table);
  core::TrainerConfig train_cfg;
  train_cfg.epochs = 15;
  train_cfg.learning_rate = 3e-3;
  const auto history =
      core::TrainPathRank(model, split.train, split.validation, train_cfg);
  std::printf("[5/7] trained %zu epochs (best val MAE %.4f at epoch %d)\n",
              history.epochs.size(), history.best_val_mae,
              history.best_epoch);

  // 6. Evaluate on held-out trajectories.
  const auto result = core::Evaluate(model, split.test);
  std::printf("[6/7] test: %s\n", result.ToString().c_str());

  // 7. Deployment: capture an immutable snapshot of the trained weights
  // in a replica-pool scorer, and rank through a RoutePlanner that
  // enumerates each query's candidates and scores them with it. Any
  // number of threads could now call planner.Plan concurrently.
  const auto& query_trip = split.test.queries.front();
  const serving::ServingEngine engine(network,
                                      serving::ModelSnapshot::Capture(model));
  serving::RoutePlannerConfig planner_cfg;
  planner_cfg.network = &network;
  planner_cfg.candidates = gen_cfg;
  const serving::RoutePlanner planner(
      planner_cfg, [&engine](std::vector<routing::Path> paths) {
        return engine.ScoreBatch(std::move(paths));
      });
  const auto ranked =
      planner.Plan({query_trip.source, query_trip.destination}).ranked;
  std::printf("[7/7] query %u -> %u, %zu candidates:\n", query_trip.source,
              query_trip.destination, ranked.size());
  for (size_t i = 0; i < ranked.size(); ++i) {
    std::printf("   #%zu score=%.3f length=%.0fm time=%.0fs vertices=%zu\n",
                i + 1, ranked[i].score, ranked[i].path.length_m,
                ranked[i].path.time_s, ranked[i].path.num_vertices());
  }
  return 0;
}
