// Persistence for road networks: a human-readable CSV pair
// (vertices.csv + edges.csv).
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

}  // namespace pathrank::graph
