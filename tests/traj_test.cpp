// Trajectory substrate: driver model and trip generation (including the
// paper's "neither shortest nor fastest" premise).
#include <gtest/gtest.h>

#include "common/rng.h"
#include "graph/network_builder.h"
#include "routing/cost_model.h"
#include "routing/dijkstra.h"
#include "routing/path.h"
#include "traj/driver_model.h"
#include "traj/trajectory_generator.h"

namespace pathrank::traj {
namespace {

using graph::BuildSyntheticNetwork;
using graph::BuildTestNetwork;
using graph::RoadNetwork;
using graph::SyntheticNetworkConfig;

// A driver around a neutral consensus (all 1.0): drivers then differ only
// by their own jitter, archetype and noise.
DriverPreferences NeutralDriver(int driver_id, pathrank::Rng& rng) {
  PopulationPreferences neutral;
  neutral.fill(1.0);
  return SampleDriver(driver_id, rng, neutral);
}

TEST(DriverModel, DeterministicUnderSameRngSeed) {
  pathrank::Rng rng1(5);
  pathrank::Rng rng2(5);
  const DriverPreferences a = NeutralDriver(1, rng1);
  const DriverPreferences b = NeutralDriver(1, rng2);
  EXPECT_EQ(a.noise_seed, b.noise_seed);
  for (int i = 0; i < graph::kNumRoadCategories; ++i) {
    EXPECT_DOUBLE_EQ(a.category_multiplier[i], b.category_multiplier[i]);
  }
}

TEST(DriverModel, PersonalizedCostsPositiveAndDeterministic) {
  const RoadNetwork net = BuildTestNetwork();
  pathrank::Rng rng(6);
  const DriverPreferences driver = NeutralDriver(0, rng);
  const auto costs1 = PersonalizedEdgeCosts(net, driver);
  const auto costs2 = PersonalizedEdgeCosts(net, driver);
  ASSERT_EQ(costs1.size(), net.num_edges());
  for (size_t e = 0; e < costs1.size(); ++e) {
    EXPECT_GT(costs1[e], 0.0);
    EXPECT_DOUBLE_EQ(costs1[e], costs2[e]);
  }
}

TEST(DriverModel, DifferentDriversDifferentCosts) {
  const RoadNetwork net = BuildTestNetwork();
  pathrank::Rng rng(7);
  const auto c1 = PersonalizedEdgeCosts(net, NeutralDriver(0, rng));
  const auto c2 = PersonalizedEdgeCosts(net, NeutralDriver(1, rng));
  int differing = 0;
  for (size_t e = 0; e < c1.size(); ++e) {
    if (std::abs(c1[e] - c2[e]) > 1e-12) ++differing;
  }
  EXPECT_GT(differing, static_cast<int>(c1.size() / 2));
}

class GeneratorProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GeneratorProperty, ProducesRequestedValidTrips) {
  SyntheticNetworkConfig net_cfg;
  net_cfg.rows = 20;
  net_cfg.cols = 20;
  net_cfg.seed = GetParam();
  const RoadNetwork net = BuildSyntheticNetwork(net_cfg);
  TrajectoryGeneratorConfig cfg;
  cfg.num_drivers = 10;
  cfg.num_trips = 60;
  cfg.min_trip_distance_m = 2000.0;
  cfg.seed = GetParam() + 1;
  TrajectoryGenerator gen(net, cfg);
  const auto trips = gen.Generate();
  ASSERT_EQ(trips.size(), 60u);
  for (const TripPath& trip : trips) {
    EXPECT_TRUE(routing::ValidatePath(net, trip.path).empty());
    EXPECT_TRUE(routing::IsSimplePath(trip.path));
    EXPECT_GE(trip.driver_id, 0);
    EXPECT_LT(trip.driver_id, cfg.num_drivers);
    EXPECT_GE(graph::FastDistanceMeters(net.coordinate(trip.source()),
                                        net.coordinate(trip.destination())),
              cfg.min_trip_distance_m * 0.999);
  }
}

TEST_P(GeneratorProperty, DeterministicUnderSeed) {
  const RoadNetwork net = BuildTestNetwork(GetParam());
  TrajectoryGeneratorConfig cfg;
  cfg.num_drivers = 5;
  cfg.num_trips = 20;
  cfg.min_trip_distance_m = 1000.0;
  cfg.seed = 99;
  const auto trips1 = TrajectoryGenerator(net, cfg).Generate();
  const auto trips2 = TrajectoryGenerator(net, cfg).Generate();
  ASSERT_EQ(trips1.size(), trips2.size());
  for (size_t i = 0; i < trips1.size(); ++i) {
    EXPECT_EQ(trips1[i].path.vertices, trips2[i].path.vertices);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeneratorProperty,
                         ::testing::Values(21, 31, 41));

TEST(Generator, ReproducesPaperPremise) {
  // A meaningful share of trips must be neither length-shortest nor
  // time-fastest — the paper's core observation about local drivers.
  SyntheticNetworkConfig net_cfg;
  net_cfg.rows = 24;
  net_cfg.cols = 24;
  const RoadNetwork net = BuildSyntheticNetwork(net_cfg);
  TrajectoryGeneratorConfig cfg;
  cfg.num_drivers = 20;
  cfg.num_trips = 100;
  cfg.min_trip_distance_m = 3000.0;
  const auto trips = TrajectoryGenerator(net, cfg).Generate();

  routing::Dijkstra dijkstra(net);
  const auto length_cost = routing::EdgeCostFn::Length(net);
  const auto time_cost = routing::EdgeCostFn::TravelTime(net);
  int neither = 0;
  for (const TripPath& trip : trips) {
    const auto shortest =
        dijkstra.ShortestPath(trip.source(), trip.destination(), length_cost);
    const auto fastest =
        dijkstra.ShortestPath(trip.source(), trip.destination(), time_cost);
    ASSERT_TRUE(shortest.has_value());
    ASSERT_TRUE(fastest.has_value());
    const bool is_shortest = trip.path.vertices == shortest->vertices;
    const bool is_fastest = trip.path.vertices == fastest->vertices;
    if (!is_shortest && !is_fastest) ++neither;
  }
  // At least 30% of simulated trips deviate from both canonical routes.
  EXPECT_GE(neither, 30);
}

}  // namespace
}  // namespace pathrank::traj
