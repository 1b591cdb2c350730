// CSV persistence for trip-path corpora, so simulation, training and
// evaluation can run as separate processes (see tools/pathrank_cli.cpp).
#pragma once

#include <string>
#include <vector>

#include "graph/road_network.h"
#include "traj/trajectory.h"

namespace pathrank::traj {

/// Writes trips as CSV rows: driver_id, then the vertex sequence joined
/// with ';' (edge ids are reconstructed at load time). Throws
/// std::runtime_error when the file cannot be opened or written.
void SaveTrips(const std::vector<TripPath>& trips, const std::string& path);

/// Loads trips written by SaveTrips, rebuilding edges against `network`.
/// Throws std::runtime_error on malformed rows or broken vertex sequences.
std::vector<TripPath> LoadTrips(const graph::RoadNetwork& network,
                                const std::string& path);

}  // namespace pathrank::traj
