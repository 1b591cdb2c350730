#include "routing/preprocessed_graph.h"

#include <algorithm>
#include <limits>

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
    dist_to_.push_back(ReverseDistances(network, current, cost));
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

double PreprocessedGraph::LowerBound(VertexId v, VertexId target) const {
  double best = 0.0;
  for (size_t l = 0; l < landmarks_.size(); ++l) {
    const double from_l_t = dist_from_[l][target];
    const double from_l_v = dist_from_[l][v];
    if (from_l_t != kInf && from_l_v != kInf) {
      best = std::max(best, from_l_t - from_l_v);
    }
    const double to_l_v = dist_to_[l][v];
    const double to_l_t = dist_to_[l][target];
    if (to_l_v != kInf && to_l_t != kInf) {
      best = std::max(best, to_l_v - to_l_t);
    }
  }
  return best;
}

}  // namespace pathrank::routing
