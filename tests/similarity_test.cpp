// Weighted Jaccard similarity properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <vector>

#include "common/rng.h"
#include "graph/network_builder.h"
#include "routing/cost_model.h"
#include "routing/dijkstra.h"
#include "routing/path_similarity.h"

namespace pathrank::routing {
namespace {

using graph::BuildTestNetwork;
using graph::EdgeId;
using graph::RoadNetwork;

TEST(WeightedJaccard, IdenticalPathsScoreOne) {
  const RoadNetwork net = BuildTestNetwork();
  Dijkstra dijkstra(net);
  const auto cost = EdgeCostFn::Length(net);
  const auto p = dijkstra.ShortestPath(0, 63, cost);
  ASSERT_TRUE(p.has_value());
  EXPECT_DOUBLE_EQ(WeightedJaccard(net, p->edges, p->edges), 1.0);
}

TEST(WeightedJaccard, DisjointPathsScoreZero) {
  const RoadNetwork net = BuildTestNetwork();
  // Two single-edge "paths" with different edges.
  const std::vector<EdgeId> a{0};
  const std::vector<EdgeId> b{5};
  EXPECT_DOUBLE_EQ(WeightedJaccard(net, a, b), 0.0);
}

TEST(WeightedJaccard, EmptyVsEmptyIsOneEmptyVsNonEmptyZero) {
  const RoadNetwork net = BuildTestNetwork();
  const std::vector<EdgeId> empty;
  const std::vector<EdgeId> one{3};
  EXPECT_DOUBLE_EQ(WeightedJaccard(net, empty, empty), 1.0);
  EXPECT_DOUBLE_EQ(WeightedJaccard(net, empty, one), 0.0);
}

TEST(WeightedJaccard, WeightsMatter) {
  // Overlap on a long edge scores higher than overlap on a short edge of
  // the same set sizes.
  graph::RoadNetworkBuilder b;
  for (int i = 0; i < 6; ++i) b.AddVertex({57.0 + 0.01 * i, 9.9});
  const EdgeId long_shared =
      b.AddEdge(0, 1, 1000.0, graph::RoadCategory::kResidential);
  const EdgeId short_shared =
      b.AddEdge(1, 2, 10.0, graph::RoadCategory::kResidential);
  const EdgeId extra_a =
      b.AddEdge(2, 3, 100.0, graph::RoadCategory::kResidential);
  const EdgeId extra_b =
      b.AddEdge(3, 4, 100.0, graph::RoadCategory::kResidential);
  const RoadNetwork net = b.Build();

  const std::vector<EdgeId> a1{long_shared, extra_a};
  const std::vector<EdgeId> b1{long_shared, extra_b};
  const std::vector<EdgeId> a2{short_shared, extra_a};
  const std::vector<EdgeId> b2{short_shared, extra_b};
  EXPECT_GT(WeightedJaccard(net, a1, b1), WeightedJaccard(net, a2, b2));
}

class SimilarityProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimilarityProperty, RangeAndSymmetry) {
  const RoadNetwork net = BuildTestNetwork(GetParam());
  pathrank::Rng rng(GetParam() * 3 + 11);
  Dijkstra dijkstra(net);
  const auto cost = EdgeCostFn::Length(net);
  for (int i = 0; i < 20; ++i) {
    const auto s1 = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    const auto t1 = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    const auto s2 = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    const auto t2 = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    if (s1 == t1 || s2 == t2) continue;
    const auto p1 = dijkstra.ShortestPath(s1, t1, cost);
    const auto p2 = dijkstra.ShortestPath(s2, t2, cost);
    if (!p1.has_value() || !p2.has_value()) continue;
    const double ab = WeightedJaccard(net, p1->edges, p2->edges);
    const double ba = WeightedJaccard(net, p2->edges, p1->edges);
    EXPECT_DOUBLE_EQ(ab, ba);
    EXPECT_GE(ab, 0.0);
    EXPECT_LE(ab, 1.0);
    // The extremes are set equality and disjointness.
    const std::set<EdgeId> e1(p1->edges.begin(), p1->edges.end());
    const std::set<EdgeId> e2(p2->edges.begin(), p2->edges.end());
    EXPECT_EQ(ab == 1.0, e1 == e2);
    EXPECT_EQ(ab == 0.0, std::none_of(e1.begin(), e1.end(), [&](EdgeId e) {
                return e2.count(e) > 0;
              }));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimilarityProperty,
                         ::testing::Values(4, 14, 24, 64));

TEST(WeightedJaccard, SortedSetFormIsBitwiseEqual) {
  // Random edge lists with repeats, compared both ways round: the sorted
  // sets merged by WeightedJaccardSorted give WeightedJaccard's bits, and
  // both equal a plain std::set reference summed in ascending id order.
  const RoadNetwork net = BuildTestNetwork(7);
  const auto m = static_cast<uint32_t>(net.num_edges());
  pathrank::Rng rng(91);
  const auto random_list = [&] {
    std::vector<EdgeId> edges(rng.NextBounded(12));
    // Ids from a narrow window, so lists overlap and repeat ids.
    const auto base = static_cast<EdgeId>(rng.NextBounded(m - 16));
    for (EdgeId& e : edges) {
      e = base + static_cast<EdgeId>(rng.NextBounded(16));
    }
    return edges;
  };
  for (int i = 0; i < 500; ++i) {
    const std::vector<EdgeId> a = random_list();
    const std::vector<EdgeId> b = random_list();
    const std::vector<EdgeId> sa = SortedEdgeSet(a);
    const std::vector<EdgeId> sb = SortedEdgeSet(b);
    EXPECT_TRUE(std::is_sorted(sa.begin(), sa.end()));
    EXPECT_EQ(std::adjacent_find(sa.begin(), sa.end()), sa.end());

    const std::set<EdgeId> set_a(a.begin(), a.end());
    const std::set<EdgeId> set_b(b.begin(), b.end());
    std::set<EdgeId> all = set_a;
    all.insert(set_b.begin(), set_b.end());
    double inter = 0.0;
    double uni = 0.0;
    for (EdgeId e : all) {
      const double len = net.edge(e).length_m;
      if (set_a.count(e) != 0 && set_b.count(e) != 0) inter += len;
      uni += len;
    }
    const double want =
        all.empty() ? 1.0 : (uni > 0.0 ? inter / uni : 1.0);

    const double got = WeightedJaccardSorted(net, sa, sb);
    EXPECT_EQ(std::bit_cast<uint64_t>(want), std::bit_cast<uint64_t>(got))
        << "pair " << i;
    EXPECT_EQ(std::bit_cast<uint64_t>(WeightedJaccard(net, a, b)),
              std::bit_cast<uint64_t>(got))
        << "pair " << i;
  }
}

}  // namespace
}  // namespace pathrank::routing
