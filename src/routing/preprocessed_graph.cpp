#include "routing/preprocessed_graph.h"

#include <limits>
#include <utility>

#include "common/logging.h"
#include "routing/dijkstra.h"

namespace pathrank::routing {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

PreprocessedGraph::Metric MetricOf(const EdgeCostFn& cost) {
  if (cost.is_length()) return PreprocessedGraph::Metric::kLength;
  if (cost.is_travel_time()) return PreprocessedGraph::Metric::kTravelTime;
  return PreprocessedGraph::Metric::kCustom;
}

}  // namespace

PreprocessedGraph::PreprocessedGraph(const RoadNetwork& network,
                                     const EdgeCostFn& cost,
                                     int num_landmarks)
    : metric_(MetricOf(cost)), num_vertices_(network.num_vertices()) {
  PR_CHECK(num_landmarks >= 1);
  PR_CHECK(network.num_vertices() > 0);

  Dijkstra dijkstra(network);
  // Farthest-point landmark selection: start from vertex 0, repeatedly add
  // the vertex farthest (under the metric) from the current landmark set.
  VertexId current = 0;
  std::vector<double> min_dist(network.num_vertices(), kInf);
  for (int l = 0; l < num_landmarks; ++l) {
    landmarks_.push_back(current);
    dijkstra.ComputeAllFrom(current, cost);
    std::vector<double> from(network.num_vertices(), kInf);
    for (VertexId v = 0; v < network.num_vertices(); ++v) {
      if (dijkstra.Reached(v)) from[v] = dijkstra.DistanceTo(v);
    }
    dist_to_.push_back(ReverseTree(network, current, cost).dist);
    dist_from_.push_back(std::move(from));

    // Update farthest-point bookkeeping and pick the next landmark.
    VertexId next = current;
    double best = -1.0;
    for (VertexId v = 0; v < network.num_vertices(); ++v) {
      const double d = dist_from_.back()[v];
      if (d < min_dist[v]) min_dist[v] = d;
      if (min_dist[v] != kInf && min_dist[v] > best) {
        best = min_dist[v];
        next = v;
      }
    }
    current = next;
  }
}

bool PreprocessedGraph::CompatibleWith(const EdgeCostFn& cost) const {
  if (cost.network().num_vertices() != num_vertices_) return false;
  switch (metric_) {
    case Metric::kLength:
      return cost.is_length();
    case Metric::kTravelTime:
      return cost.is_travel_time();
    case Metric::kCustom:
      // A type-erased custom metric cannot be compared; trust the caller.
      return !cost.is_length() && !cost.is_travel_time();
  }
  return false;
}

}  // namespace pathrank::routing
