// Persistence for road networks: a human-readable CSV pair
// (vertices.csv + edges.csv), and an edges-only CSV loader.
#pragma once

#include <string>

#include "graph/road_network.h"

namespace pathrank::graph {

/// Writes `<prefix>_vertices.csv` (id,lat,lon) and
/// `<prefix>_edges.csv` (from,to,length_m,travel_time_s,category).
/// Throws std::runtime_error when a file cannot be opened or written.
void SaveNetworkCsv(const RoadNetwork& network, const std::string& prefix);

/// Loads a network previously written by SaveNetworkCsv. Throws
/// std::runtime_error naming the file, line and offending token on
/// malformed rows: a vertex id out of row order, an edge endpoint that is
/// not a vertex, a length that is not positive.
RoadNetwork LoadNetworkCsv(const std::string& prefix);

/// Loads a network from a single edges CSV (the `<prefix>_edges.csv`
/// half of the pair: from,to,length_m,travel_time_s,category with a
/// header row). The vertex set is inferred as [0, max referenced id] and
/// every coordinate defaults to (0, 0) — sufficient for the travel-time
/// candidate generation and serving paths (Dijkstra/Yen need topology
/// and costs only; a zero-coordinate heuristic is admissible), not for
/// coordinate-based tooling. Throws std::runtime_error
/// with file:line:token context on malformed rows, and when the file has
/// no edge rows at all.
RoadNetwork LoadNetworkEdgesCsv(const std::string& path);

}  // namespace pathrank::graph
