#include "routing/path.h"

#include <unordered_set>

#include "common/string_util.h"

namespace pathrank::routing {

Path PathFromEdges(const RoadNetwork& network,
                   std::span<const EdgeId> edges) {
  Path path;
  if (edges.empty()) return path;
  path.edges.assign(edges.begin(), edges.end());
  path.vertices.reserve(edges.size() + 1);
  path.vertices.push_back(network.edge(edges.front()).from);
  for (EdgeId e : edges) {
    path.vertices.push_back(network.edge(e).to);
  }
  RecomputeTotals(network, &path);
  path.cost = path.length_m;
  return path;
}

bool IsSimplePath(const Path& path) {
  std::unordered_set<VertexId> seen;
  seen.reserve(path.vertices.size() * 2);
  for (VertexId v : path.vertices) {
    if (!seen.insert(v).second) return false;
  }
  return true;
}

std::string ValidatePath(const RoadNetwork& network, const Path& path) {
  if (path.vertices.empty() && path.edges.empty()) return "";
  if (path.vertices.size() != path.edges.size() + 1) {
    return "vertex/edge count mismatch";
  }
  double length = 0.0;
  double time = 0.0;
  for (size_t i = 0; i < path.edges.size(); ++i) {
    const auto& rec = network.edge(path.edges[i]);
    if (rec.from != path.vertices[i] || rec.to != path.vertices[i + 1]) {
      return StrFormat("edge %zu does not connect vertices %zu -> %zu", i, i,
                       i + 1);
    }
    length += rec.length_m;
    time += rec.travel_time_s;
  }
  if (std::abs(length - path.length_m) > 1e-6 * std::max(1.0, length)) {
    return "length_m does not match edge sum";
  }
  if (std::abs(time - path.time_s) > 1e-6 * std::max(1.0, time)) {
    return "time_s does not match edge sum";
  }
  return "";
}

void RecomputeTotals(const RoadNetwork& network, Path* path) {
  path->length_m = network.PathLengthMeters(path->edges);
  path->time_s = network.PathTravelTimeSeconds(path->edges);
}

}  // namespace pathrank::routing
