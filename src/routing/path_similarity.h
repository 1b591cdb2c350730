// Path-to-path similarity measures.
//
// The paper uses length-weighted Jaccard similarity over edge sets both as
// the ground-truth ranking score and as the diversity criterion of the
// D-TkDI candidate generator:
//
//   WJ(P, P') = sum_{e in P ∩ P'} len(e) / sum_{e in P ∪ P'} len(e)
#pragma once

#include <span>
#include <vector>

#include "graph/road_network.h"

namespace pathrank::routing {

/// Length-weighted Jaccard similarity of two edge-id sets, in [0, 1].
/// 1.0 iff the sets are identical and non-empty; 0.0 when disjoint.
/// Two empty paths have similarity 1.0 by convention.
double WeightedJaccard(const graph::RoadNetwork& network,
                       std::span<const graph::EdgeId> a,
                       std::span<const graph::EdgeId> b);

/// The sorted, duplicate-free edge ids of `edges`: the set form that
/// WeightedJaccardSorted merges.
std::vector<graph::EdgeId> SortedEdgeSet(std::span<const graph::EdgeId> edges);

/// WeightedJaccard over two SortedEdgeSet results, bitwise equal to
/// WeightedJaccard on the original edge lists. A caller that compares one
/// path against many sorts each path once.
double WeightedJaccardSorted(const graph::RoadNetwork& network,
                             std::span<const graph::EdgeId> sorted_a,
                             std::span<const graph::EdgeId> sorted_b);

}  // namespace pathrank::routing
