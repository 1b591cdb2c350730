// Trip-path data type.
//
// A *trip path* is the road-network path one driver followed on one trip:
// the paper's trajectory path. This reproduction simulates trip paths
// (traj/trajectory_generator.h) or loads them as vertex sequences
// (traj/trip_io.h); it reads no raw GPS and map-matches nothing.
#pragma once

#include "graph/types.h"
#include "routing/path.h"

namespace pathrank::traj {

/// Road-network path of one trip.
struct TripPath {
  int driver_id = 0;
  routing::Path path;

  graph::VertexId source() const { return path.source(); }
  graph::VertexId destination() const { return path.destination(); }
};

}  // namespace pathrank::traj
