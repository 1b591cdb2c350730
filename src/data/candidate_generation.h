// Training-data generation (Section "Training Data Generation" of the
// paper): for each trajectory path PT from s to d, generate a candidate set
// with one of two strategies —
//   * TkDI   — top-k shortest paths (Yen),
//   * D-TkDI — diversified top-k shortest paths,
// and label every candidate P with WeightedJaccard(P, PT), its ground-truth
// ranking score.
#pragma once

#include <string>
#include <vector>

#include "common/deadline.h"
#include "routing/diversified.h"
#include "routing/path.h"
#include "traj/trajectory.h"

namespace pathrank::routing {
class ShortestPathEngine;
}  // namespace pathrank::routing

namespace pathrank::data {

/// Candidate-set construction strategy.
enum class CandidateStrategy {
  kTopK,             // TkDI: plain top-k shortest paths
  kDiversifiedTopK,  // D-TkDI: diversified top-k shortest paths
};

std::string CandidateStrategyName(CandidateStrategy strategy);

/// Candidate generation parameters.
struct CandidateGenConfig {
  CandidateStrategy strategy = CandidateStrategy::kDiversifiedTopK;
  /// Candidate paths per query (the paper's k).
  int k = 10;
  /// D-TkDI pairwise weighted-Jaccard ceiling.
  double similarity_threshold = 0.8;
  /// Yen enumeration budget for D-TkDI.
  int max_enumerated = 400;
};

/// One labelled candidate path.
struct RankingCandidate {
  routing::Path path;
  /// Ground-truth score: WeightedJaccard(path, trajectory path) in [0,1].
  double label = 0.0;
};

/// One query: a trajectory path and its labelled candidate set.
struct RankingQuery {
  int query_id = 0;
  int driver_id = 0;
  graph::VertexId source = graph::kInvalidVertex;
  graph::VertexId destination = graph::kInvalidVertex;
  /// The ground-truth (trajectory) path.
  routing::Path truth;
  std::vector<RankingCandidate> candidates;
};

/// Enumerates candidate paths for one (source, destination) pair with the
/// configured strategy under the free-flow travel-time metric — the one
/// switch shared by training-data generation and the serving engine, so
/// deployment-time candidates always match the training distribution.
/// `cancel` (optional, serving only — training never sets it) threads
/// cooperative cancellation into the strategy's enumeration loops; when
/// it expires mid-run the candidates found so far are returned.
/// `engine` (optional, borrowed, not thread-safe — one per concurrent
/// call) runs the Yen spur searches of either strategy; nullptr = owned
/// plain Dijkstra.
std::vector<routing::Path> GenerateCandidatePaths(
    const graph::RoadNetwork& network, graph::VertexId source,
    graph::VertexId destination, const CandidateGenConfig& config,
    const CancelToken* cancel = nullptr,
    routing::ShortestPathEngine* engine = nullptr);

/// Generates the candidate set for one trip. Candidates are computed with
/// the free-flow travel-time metric (the advanced-routing component of the
/// paper's pipeline). Returns fewer than k candidates only when the graph
/// does not admit k simple paths.
RankingQuery GenerateQuery(const graph::RoadNetwork& network,
                           const traj::TripPath& trip, int query_id,
                           const CandidateGenConfig& config);

/// Generates queries for an entire trip corpus.
std::vector<RankingQuery> GenerateQueries(
    const graph::RoadNetwork& network,
    const std::vector<traj::TripPath>& trips,
    const CandidateGenConfig& config);

}  // namespace pathrank::data
