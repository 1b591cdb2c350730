// Simulated driver route-choice model.
//
// The paper's premise: "local drivers often choose paths that are neither
// shortest nor fastest", and those choices are *learnable* from historical
// trajectories — i.e. drivers in a region share common preferences.
//
// We reproduce both properties with a two-level personalised-cost model:
//
//   * A population-level consensus preference over road categories
//     (sampled once per simulation): locals as a group prefer arterials
//     and motorways beyond what free-flow time implies, and avoid
//     residential shortcuts. This makes driver paths deviate
//     systematically from both the shortest and the fastest path while
//     remaining predictable from the path itself — the signal PathRank
//     learns.
//   * Per-driver deviation: a small multiplicative jitter on the consensus,
//     a minority of stronger archetypes (highway avoiders / lovers), and
//     log-normal per-edge "familiarity" noise fixed per (driver, edge) via
//     hashing, consistent across that driver's trips.
//
// A trip's ground-truth path is the shortest path under
//   cost(e) = travel_time(e) * pref[category(e)] * familiarity(e).
#pragma once

#include <array>
#include <vector>

#include "common/rng.h"
#include "graph/road_network.h"

namespace pathrank::traj {

/// Population-level multiplier per road category (1.0 = neutral,
/// < 1 preferred, > 1 avoided).
using PopulationPreferences = std::array<double, graph::kNumRoadCategories>;

/// Draws the regional consensus: big roads preferred, residential avoided.
PopulationPreferences SamplePopulationPreferences(pathrank::Rng& rng);

/// Per-driver route-choice parameters.
struct DriverPreferences {
  int driver_id = 0;
  /// Multiplier applied to travel time per road category; 1.0 = neutral.
  std::array<double, graph::kNumRoadCategories> category_multiplier{};
  /// Standard deviation of the log-normal familiarity noise.
  double familiarity_sigma = 0.1;
  /// Seed mixing the driver identity into per-edge noise.
  uint64_t noise_seed = 0;
};

/// Draws a driver around the population consensus: mild jitter for most
/// drivers, stronger archetypes for a minority.
DriverPreferences SampleDriver(int driver_id, pathrank::Rng& rng,
                               const PopulationPreferences& population);

/// Materialises the personalised per-edge cost vector for one driver.
/// Deterministic in (driver, network).
std::vector<double> PersonalizedEdgeCosts(
    const graph::RoadNetwork& network, const DriverPreferences& driver);

}  // namespace pathrank::traj
