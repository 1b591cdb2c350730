// Shortest-path correctness: Dijkstra against Bellman-Ford, ban sets, and
// Path helpers. (ALT against Dijkstra lives in alt_test.)
#include <gtest/gtest.h>

#include <limits>

#include "common/rng.h"
#include "graph/network_builder.h"
#include "routing/cost_model.h"
#include "routing/dijkstra.h"
#include "routing/path.h"

namespace pathrank::routing {
namespace {

using graph::BuildTestNetwork;
using graph::RoadCategory;
using graph::RoadNetwork;
using graph::RoadNetworkBuilder;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Reference Bellman-Ford distances (no path reconstruction).
std::vector<double> BellmanFord(const RoadNetwork& net, VertexId source,
                                const EdgeCostFn& cost) {
  std::vector<double> dist(net.num_vertices(), kInf);
  dist[source] = 0.0;
  for (size_t round = 0; round + 1 < net.num_vertices(); ++round) {
    bool changed = false;
    for (graph::EdgeId e = 0; e < net.num_edges(); ++e) {
      const auto& rec = net.edge(e);
      if (dist[rec.from] == kInf) continue;
      const double nd = dist[rec.from] + cost(e);
      if (nd < dist[rec.to] - 1e-12) {
        dist[rec.to] = nd;
        changed = true;
      }
    }
    if (!changed) break;
  }
  return dist;
}

class ShortestPathProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShortestPathProperty, DijkstraMatchesBellmanFord) {
  const RoadNetwork net = BuildTestNetwork(GetParam());
  const auto cost = EdgeCostFn::Length(net);
  Dijkstra dijkstra(net);
  pathrank::Rng rng(GetParam());
  const auto source =
      static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
  const auto reference = BellmanFord(net, source, cost);
  dijkstra.ComputeAllFrom(source, cost);
  for (VertexId v = 0; v < net.num_vertices(); ++v) {
    if (reference[v] == kInf) {
      EXPECT_FALSE(dijkstra.Reached(v));
    } else {
      EXPECT_NEAR(dijkstra.DistanceTo(v), reference[v], 1e-6);
    }
  }
}

TEST_P(ShortestPathProperty, ReturnedPathsAreValid) {
  const RoadNetwork net = BuildTestNetwork(GetParam() + 400);
  const auto cost = EdgeCostFn::Length(net);
  Dijkstra dijkstra(net);
  pathrank::Rng rng(GetParam() * 11 + 3);
  for (int i = 0; i < 20; ++i) {
    const auto s = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    const auto t = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    if (s == t) continue;
    const auto p = dijkstra.ShortestPath(s, t, cost);
    ASSERT_TRUE(p.has_value());
    EXPECT_EQ(p->source(), s);
    EXPECT_EQ(p->destination(), t);
    EXPECT_TRUE(ValidatePath(net, *p).empty()) << ValidatePath(net, *p);
    EXPECT_TRUE(IsSimplePath(*p));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShortestPathProperty,
                         ::testing::Values(1, 5, 9, 21, 33));

TEST(Dijkstra, UnreachableTargetReturnsNullopt) {
  RoadNetworkBuilder b;
  b.AddVertex({57.0, 9.9});
  b.AddVertex({57.1, 9.9});
  b.AddVertex({57.2, 9.9});
  b.AddEdge(0, 1, 100.0, RoadCategory::kResidential);
  // Vertex 2 has no incoming edges.
  b.AddEdge(2, 0, 100.0, RoadCategory::kResidential);
  const RoadNetwork net = b.Build();
  Dijkstra dijkstra(net);
  const auto cost = EdgeCostFn::Length(net);
  EXPECT_FALSE(dijkstra.ShortestPath(0, 2, cost).has_value());
  EXPECT_TRUE(dijkstra.ShortestPath(2, 1, cost).has_value());
}

TEST(Dijkstra, BansExcludeEdgesAndVertices) {
  // 0 -> 1 -> 3 (short) and 0 -> 2 -> 3 (long).
  RoadNetworkBuilder b;
  for (int i = 0; i < 4; ++i) b.AddVertex({57.0 + i * 0.01, 9.9});
  b.AddEdge(0, 1, 100.0, RoadCategory::kResidential);
  b.AddEdge(1, 3, 100.0, RoadCategory::kResidential);
  b.AddEdge(0, 2, 300.0, RoadCategory::kResidential);
  b.AddEdge(2, 3, 300.0, RoadCategory::kResidential);
  const RoadNetwork net = b.Build();
  Dijkstra dijkstra(net);
  const auto cost = EdgeCostFn::Length(net);

  const auto direct = dijkstra.ShortestPath(0, 3, cost);
  ASSERT_TRUE(direct.has_value());
  EXPECT_NEAR(direct->cost, 200.0, 1e-9);

  BanSet bans(net.num_vertices(), net.num_edges());
  bans.BanVertex(1);
  const auto detour = dijkstra.ShortestPath(0, 3, cost, &bans);
  ASSERT_TRUE(detour.has_value());
  EXPECT_NEAR(detour->cost, 600.0, 1e-9);

  bans.Clear();
  bans.BanEdge(net.FindEdge(0, 1));
  bans.BanEdge(net.FindEdge(0, 2));
  EXPECT_FALSE(dijkstra.ShortestPath(0, 3, cost, &bans).has_value());
}

TEST(BanSet, ClearIsO1AndComplete) {
  BanSet bans(10, 10);
  bans.BanVertex(3);
  bans.BanEdge(4);
  EXPECT_TRUE(bans.IsVertexBanned(3));
  EXPECT_TRUE(bans.IsEdgeBanned(4));
  bans.Clear();
  EXPECT_FALSE(bans.IsVertexBanned(3));
  EXPECT_FALSE(bans.IsEdgeBanned(4));
}

TEST(Path, FromEdgesFillsEverything) {
  const RoadNetwork net = BuildTestNetwork();
  Dijkstra dijkstra(net);
  const auto cost = EdgeCostFn::Length(net);
  const auto p = dijkstra.ShortestPath(0, 60, cost);
  ASSERT_TRUE(p.has_value());
  const Path rebuilt = PathFromEdges(net, p->edges);
  EXPECT_EQ(rebuilt.vertices, p->vertices);
  EXPECT_NEAR(rebuilt.length_m, p->length_m, 1e-9);
}

TEST(Path, ValidateCatchesCorruption) {
  const RoadNetwork net = BuildTestNetwork();
  Dijkstra dijkstra(net);
  const auto cost = EdgeCostFn::Length(net);
  auto p = dijkstra.ShortestPath(0, 60, cost);
  ASSERT_TRUE(p.has_value());
  EXPECT_TRUE(ValidatePath(net, *p).empty());
  Path broken = *p;
  broken.length_m += 1000.0;
  EXPECT_FALSE(ValidatePath(net, broken).empty());
  Path mismatched = *p;
  mismatched.vertices.pop_back();
  EXPECT_FALSE(ValidatePath(net, mismatched).empty());
}

TEST(CostModel, CustomWeightsAreUsed) {
  const RoadNetwork net = BuildTestNetwork();
  std::vector<double> weights(net.num_edges(), 1.0);
  const auto cost = EdgeCostFn::Custom(net, weights);
  Dijkstra dijkstra(net);
  const auto p = dijkstra.ShortestPath(0, 63, cost);
  ASSERT_TRUE(p.has_value());
  // With unit weights, cost equals hop count.
  EXPECT_NEAR(p->cost, static_cast<double>(p->edges.size()), 1e-9);
}

TEST(CostModel, CustomRejectsWrongSize) {
  const RoadNetwork net = BuildTestNetwork();
  std::vector<double> weights(3, 1.0);
  EXPECT_THROW(EdgeCostFn::Custom(net, weights), std::logic_error);
}

}  // namespace
}  // namespace pathrank::routing
