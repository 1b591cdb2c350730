// Commute-ranking scenario: the routing-service use case that motivates
// the paper. A navigation provider wants to suggest routes that local
// drivers would actually take, not merely the shortest.
//
// We train PathRank on one group of drivers, then for held-out commutes we
// compare three route suggestions against the driver's actual path:
//   * shortest path (classic routing),
//   * fastest path (classic routing),
//   * PathRank's top-ranked candidate.
// The printed score is the weighted Jaccard similarity to the path the
// driver really took — higher is better.
#include <cstdio>

#include "pathrank.h"
#include "routing/cost_model.h"
#include "routing/path_similarity.h"

int main() {
  using namespace pathrank;

  graph::SyntheticNetworkConfig net_cfg;
  net_cfg.rows = 20;
  net_cfg.cols = 20;
  net_cfg.seed = 11;
  const auto network = graph::BuildSyntheticNetwork(net_cfg);

  traj::TrajectoryGeneratorConfig traj_cfg;
  traj_cfg.num_drivers = 25;
  traj_cfg.num_trips = 260;
  traj_cfg.min_trip_distance_m = 3000.0;
  traj_cfg.max_path_vertices = 50;
  traj_cfg.seed = 12;
  const auto trips = traj::TrajectoryGenerator(network, traj_cfg).Generate();

  data::CandidateGenConfig gen_cfg;
  gen_cfg.strategy = data::CandidateStrategy::kDiversifiedTopK;
  gen_cfg.k = 8;
  data::RankingDataset dataset;
  dataset.queries = data::GenerateQueries(network, trips, gen_cfg);
  Rng rng(13);
  const auto split = data::SplitDataset(dataset, 0.75, 0.1, rng);

  embedding::Node2VecConfig n2v;
  n2v.skipgram.dims = 48;
  n2v.seed = 14;
  const auto table = embedding::TrainNode2Vec(network, n2v);

  core::PathRankConfig model_cfg;
  model_cfg.embedding_dim = 48;
  model_cfg.hidden_size = 64;
  model_cfg.finetune_embedding = true;
  core::PathRankModel model(network.num_vertices(), model_cfg);
  model.InitializeEmbedding(table);
  core::TrainerConfig train_cfg;
  train_cfg.epochs = 12;
  train_cfg.learning_rate = 3e-3;
  core::TrainPathRank(model, split.train, split.validation, train_cfg);

  // Deployment surface: an immutable snapshot in a thread-safe scorer,
  // behind the planner that enumerates and ranks each query's candidates.
  const serving::ServingEngine engine(network,
                                      serving::ModelSnapshot::Capture(model));
  serving::RoutePlannerConfig planner_cfg;
  planner_cfg.network = &network;
  planner_cfg.candidates = gen_cfg;
  const serving::RoutePlanner planner(
      planner_cfg, [&engine](std::vector<routing::Path> paths) {
        return engine.ScoreBatch(paths);
      });
  routing::Dijkstra dijkstra(network);
  const auto length_cost = routing::EdgeCostFn::Length(network);
  const auto time_cost = routing::EdgeCostFn::TravelTime(network);

  std::printf(
      "similarity of suggested route to the driver's actual path\n"
      "(weighted Jaccard; higher = closer to real driver behaviour)\n\n");
  std::printf("%-10s %10s %10s %10s\n", "commute", "shortest", "fastest",
              "PathRank");
  std::printf("%s\n", std::string(44, '-').c_str());

  double sum_short = 0.0;
  double sum_fast = 0.0;
  double sum_rank = 0.0;
  int count = 0;
  const size_t num_queries = std::min<size_t>(12, split.test.queries.size());
  for (size_t i = 0; i < num_queries; ++i) {
    const auto& q = split.test.queries[i];
    const auto shortest =
        dijkstra.ShortestPath(q.source, q.destination, length_cost);
    const auto fastest =
        dijkstra.ShortestPath(q.source, q.destination, time_cost);
    const auto ranked = planner.Plan({q.source, q.destination}).ranked;
    if (!shortest.has_value() || !fastest.has_value() || ranked.empty()) {
      continue;
    }
    const double sim_short =
        routing::WeightedJaccard(network, shortest->edges, q.truth.edges);
    const double sim_fast =
        routing::WeightedJaccard(network, fastest->edges, q.truth.edges);
    const double sim_rank = routing::WeightedJaccard(
        network, ranked.front().path.edges, q.truth.edges);
    std::printf("#%-9d %10.3f %10.3f %10.3f\n", static_cast<int>(i),
                sim_short, sim_fast, sim_rank);
    sum_short += sim_short;
    sum_fast += sim_fast;
    sum_rank += sim_rank;
    ++count;
  }
  std::printf("%s\n", std::string(44, '-').c_str());
  std::printf("%-10s %10.3f %10.3f %10.3f\n", "mean", sum_short / count,
              sum_fast / count, sum_rank / count);
  std::printf(
      "\nPathRank's top suggestion should match real driver behaviour at\n"
      "least as well as the classic shortest/fastest suggestions.\n");
  return 0;
}
