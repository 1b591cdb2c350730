// Path type and helpers shared by all routing algorithms.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "graph/road_network.h"

namespace pathrank::routing {

using graph::EdgeId;
using graph::RoadNetwork;
using graph::VertexId;

/// A path is a vertex sequence v0..vZ and the Z connecting edge ids.
/// `cost` is the value under the metric the algorithm that produced the
/// path optimised (length, time, or a custom weighting); `length_m` and
/// `time_s` are always the physical totals.
struct Path {
  std::vector<VertexId> vertices;
  std::vector<EdgeId> edges;
  double cost = 0.0;
  double length_m = 0.0;
  double time_s = 0.0;

  bool empty() const { return vertices.empty(); }
  VertexId source() const { return vertices.front(); }
  VertexId destination() const { return vertices.back(); }
  size_t num_vertices() const { return vertices.size(); }
};

/// Builds a Path from an edge-id sequence, filling vertices and totals.
/// The edges must be contiguous (edge[i].to == edge[i+1].from).
Path PathFromEdges(const RoadNetwork& network, std::span<const EdgeId> edges);

/// True when no vertex repeats.
bool IsSimplePath(const Path& path);

/// Validates structural invariants (edges connect consecutive vertices,
/// totals match edge attributes). Returns an empty string when valid, else
/// a description of the first violation.
std::string ValidatePath(const RoadNetwork& network, const Path& path);

/// Recomputes length/time totals from the network (e.g. after surgery).
void RecomputeTotals(const RoadNetwork& network, Path* path);

}  // namespace pathrank::routing
