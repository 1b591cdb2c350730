#include "data/candidate_generation.h"

#include "common/logging.h"
#include "common/thread_pool.h"
#include "routing/cost_model.h"
#include "routing/path_similarity.h"
#include "routing/yen.h"

namespace pathrank::data {

std::string CandidateStrategyName(CandidateStrategy strategy) {
  switch (strategy) {
    case CandidateStrategy::kTopK:
      return "TkDI";
    case CandidateStrategy::kDiversifiedTopK:
      return "D-TkDI";
  }
  return "?";
}

std::vector<routing::Path> GenerateCandidatePaths(
    const graph::RoadNetwork& network, graph::VertexId source,
    graph::VertexId destination, const CandidateGenConfig& config,
    const CancelToken* cancel, routing::ShortestPathEngine* engine) {
  // Candidates are enumerated under free-flow travel time: the metric
  // commercial routing engines optimise and the domain the simulated
  // drivers perturb. (Length-based enumeration systematically misses the
  // arterial/motorway routes drivers actually take.)
  const auto cost = routing::EdgeCostFn::TravelTime(network);
  switch (config.strategy) {
    case CandidateStrategy::kTopK:
      return routing::TopKShortestPaths(network, source, destination, cost,
                                        config.k, cancel, engine);
    case CandidateStrategy::kDiversifiedTopK: {
      routing::DiversifiedOptions options;
      options.k = config.k;
      options.similarity_threshold = config.similarity_threshold;
      options.max_enumerated = config.max_enumerated;
      return routing::DiversifiedTopK(network, source, destination, cost,
                                      options, cancel, engine);
    }
  }
  return {};
}

RankingQuery GenerateQuery(const graph::RoadNetwork& network,
                           const traj::TripPath& trip, int query_id,
                           const CandidateGenConfig& config) {
  PR_CHECK(!trip.path.empty());
  RankingQuery query;
  query.query_id = query_id;
  query.driver_id = trip.driver_id;
  query.source = trip.source();
  query.destination = trip.destination();
  query.truth = trip.path;

  std::vector<routing::Path> paths =
      GenerateCandidatePaths(network, query.source, query.destination,
                             config);

  query.candidates.reserve(paths.size());
  for (routing::Path& p : paths) {
    RankingCandidate cand;
    cand.label =
        routing::WeightedJaccard(network, p.edges, query.truth.edges);
    cand.path = std::move(p);
    query.candidates.push_back(std::move(cand));
  }
  return query;
}

std::vector<RankingQuery> GenerateQueries(
    const graph::RoadNetwork& network,
    const std::vector<traj::TripPath>& trips,
    const CandidateGenConfig& config) {
  // Each query's enumeration (Yen or diversified search) is
  // independent and draws no randomness, so the output is identical for
  // any thread count.
  std::vector<RankingQuery> queries(trips.size());
  ParallelFor(0, trips.size(), 1, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      queries[i] =
          GenerateQuery(network, trips[i], static_cast<int>(i), config);
    }
  });
  return queries;
}

}  // namespace pathrank::data
