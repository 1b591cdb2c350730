// ALT (A* with landmarks) correctness and effectiveness.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/deadline.h"
#include "common/rng.h"
#include "graph/network_builder.h"
#include "routing/alt.h"
#include "routing/ban_set.h"
#include "routing/cost_model.h"
#include "routing/dijkstra.h"
#include "routing/preprocessed_graph.h"
#include "routing/shortest_path_engine.h"

namespace pathrank::routing {
namespace {

using graph::BuildSyntheticNetwork;
using graph::BuildTestNetwork;
using graph::RoadNetwork;
using graph::SyntheticNetworkConfig;

class AltProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AltProperty, MatchesDijkstraOnLength) {
  const RoadNetwork net = BuildTestNetwork(GetParam());
  const auto cost = EdgeCostFn::Length(net);
  AltRouter alt(net, cost, 6);
  Dijkstra dijkstra(net);
  pathrank::Rng rng(GetParam() * 9 + 1);
  for (int i = 0; i < 30; ++i) {
    const auto s = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    const auto t = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    if (s == t) continue;
    const auto pd = dijkstra.ShortestPath(s, t, cost);
    const auto pa = alt.ShortestPath(s, t);
    ASSERT_EQ(pd.has_value(), pa.has_value());
    if (pd.has_value()) {
      EXPECT_NEAR(pd->cost, pa->cost, 1e-6 * std::max(1.0, pd->cost));
      EXPECT_TRUE(ValidatePath(net, *pa).empty()) << ValidatePath(net, *pa);
    }
  }
}

TEST_P(AltProperty, MatchesDijkstraOnCustomMetric) {
  // The point of ALT over geometric A*: it supports arbitrary metrics.
  const RoadNetwork net = BuildTestNetwork(GetParam() + 10);
  pathrank::Rng wrng(GetParam());
  std::vector<double> weights(net.num_edges());
  for (double& w : weights) w = wrng.NextUniform(0.5, 3.0);
  const auto cost = EdgeCostFn::Custom(net, weights);
  AltRouter alt(net, cost, 6);
  Dijkstra dijkstra(net);
  pathrank::Rng rng(GetParam() * 11 + 5);
  for (int i = 0; i < 20; ++i) {
    const auto s = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    const auto t = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    if (s == t) continue;
    const auto pd = dijkstra.ShortestPath(s, t, cost);
    const auto pa = alt.ShortestPath(s, t);
    ASSERT_EQ(pd.has_value(), pa.has_value());
    if (pd.has_value()) {
      EXPECT_NEAR(pd->cost, pa->cost, 1e-6 * std::max(1.0, pd->cost));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AltProperty, ::testing::Values(2, 12, 32));

TEST(Alt, SettlesFewerVerticesThanDijkstra) {
  SyntheticNetworkConfig cfg;
  cfg.rows = 28;
  cfg.cols = 28;
  const RoadNetwork net = BuildSyntheticNetwork(cfg);
  const auto cost = EdgeCostFn::Length(net);
  AltRouter alt(net, cost, 8);
  Dijkstra dijkstra(net);
  pathrank::Rng rng(5);
  size_t settled_alt = 0;
  size_t settled_dij = 0;
  for (int i = 0; i < 20; ++i) {
    const auto s = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    const auto t = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
    if (s == t) continue;
    dijkstra.ShortestPath(s, t, cost);
    alt.ShortestPath(s, t);
    settled_dij += dijkstra.last_settled_count();
    settled_alt += alt.last_settled_count();
  }
  // ALT must do meaningfully less work overall.
  EXPECT_LT(settled_alt * 2, settled_dij);
}

TEST(Alt, BoundMemoFollowsTheTargetAcrossInterleavedQueries) {
  // One engine keeps its per-target tree (and its per-search suffix memo)
  // across queries; a fresh engine per query has neither. Targets
  // alternate and repeat, ban sets vary, so a tree that outlived its
  // target (or a memo entry surviving a ban change) would change the
  // search order and show up as a different path, cost bit or settled
  // count.
  SyntheticNetworkConfig cfg;
  cfg.rows = 14;
  cfg.cols = 14;
  cfg.seed = 21;
  const RoadNetwork net = BuildSyntheticNetwork(cfg);
  const auto cost = EdgeCostFn::TravelTime(net);
  const auto tables = std::make_shared<const PreprocessedGraph>(net, cost, 8);
  AltEngine reused(net, cost, tables);
  BanSet bans(net.num_vertices(), net.num_edges());
  pathrank::Rng rng(4);
  const auto n = static_cast<uint32_t>(net.num_vertices());
  VertexId targets[3];
  for (VertexId& t : targets) t = static_cast<VertexId>(rng.NextBounded(n));
  for (int q = 0; q < 90; ++q) {
    // A, B, A, B, ... with runs of one target and a third one mixed in.
    const VertexId t = targets[q % 7 == 6 ? 2 : (q / 2 + q) % 2];
    const auto s = static_cast<VertexId>(rng.NextBounded(n));
    if (s == t) continue;
    bans.Clear();
    const int num_bans = q % 5 * 4;
    for (int b = 0; b < num_bans; ++b) {
      const auto v = static_cast<VertexId>(rng.NextBounded(n));
      if (v != s && v != t) bans.BanVertex(v);
      bans.BanEdge(static_cast<graph::EdgeId>(
          rng.NextBounded(static_cast<uint32_t>(net.num_edges()))));
    }
    const BanSet* query_bans = num_bans == 0 ? nullptr : &bans;
    const SearchResult got = reused.FindPath(s, t, cost, query_bans, nullptr);
    AltEngine fresh(net, cost, tables);
    const SearchResult want = fresh.FindPath(s, t, cost, query_bans, nullptr);
    ASSERT_EQ(want.outcome, got.outcome) << "query " << q;
    EXPECT_EQ(fresh.last_settled_count(), reused.last_settled_count())
        << "query " << q;
    if (!want.found()) continue;
    EXPECT_EQ(want.path.vertices, got.path.vertices) << "query " << q;
    EXPECT_EQ(want.path.edges, got.path.edges) << "query " << q;
    EXPECT_EQ(std::bit_cast<uint64_t>(want.path.cost),
              std::bit_cast<uint64_t>(got.path.cost))
        << "query " << q;
  }
}

TEST(Alt, DistancesToIsTheReverseTree) {
  SyntheticNetworkConfig cfg;
  cfg.rows = 12;
  cfg.cols = 12;
  cfg.seed = 3;
  const RoadNetwork net = BuildSyntheticNetwork(cfg);
  const auto cost = EdgeCostFn::TravelTime(net);
  AltEngine engine(net, cost,
                   std::make_shared<const PreprocessedGraph>(net, cost, 4));
  BanSet bans(net.num_vertices(), net.num_edges());
  bans.BanVertex(5);
  // Alternate targets; each query builds the tree when its target changed.
  for (const VertexId t : {VertexId{17}, VertexId{90}, VertexId{17}}) {
    engine.FindPath(0, t, cost, &bans, nullptr);
    const std::vector<double>* got = engine.DistancesTo(t, nullptr);
    ASSERT_NE(got, nullptr);
    const std::vector<double> want = ReverseTree(net, t, cost).dist;
    ASSERT_EQ(want.size(), got->size());
    for (size_t v = 0; v < want.size(); ++v) {
      EXPECT_EQ(std::bit_cast<uint64_t>(want[v]),
                std::bit_cast<uint64_t>((*got)[v]))
          << "target " << t << " vertex " << v;
    }
  }
}

TEST(Alt, TreeBuildCancelledReportsCancelledThenRecovers) {
  SyntheticNetworkConfig cfg;
  cfg.rows = 12;
  cfg.cols = 12;
  cfg.seed = 9;
  const RoadNetwork net = BuildSyntheticNetwork(cfg);
  const auto cost = EdgeCostFn::TravelTime(net);
  const auto tables = std::make_shared<const PreprocessedGraph>(net, cost, 4);
  AltEngine engine(net, cost, tables);
  BanSet bans(net.num_vertices(), net.num_edges());
  bans.BanVertex(40);
  const VertexId s = 3;
  const VertexId t = 130;
  // Expired() passes the query's entry check and the tree build's, then
  // trips at the build's first in-loop poll (pop 64 of 144 vertices).
  CancelToken token;
  token.TripAfterChecks(2);
  EXPECT_EQ(engine.FindPath(s, t, cost, &bans, &token).outcome,
            SearchOutcome::kCancelled);
  const std::vector<double>* cut = engine.DistancesTo(t, &token);
  ASSERT_NE(cut, nullptr);
  EXPECT_TRUE(cut->empty());

  // A later query to the same target answers like a fresh engine.
  AltEngine fresh(net, cost, tables);
  const SearchResult want = fresh.FindPath(s, t, cost, &bans, nullptr);
  const SearchResult got = engine.FindPath(s, t, cost, &bans, nullptr);
  ASSERT_EQ(want.outcome, SearchOutcome::kFound);
  ASSERT_EQ(want.outcome, got.outcome);
  EXPECT_EQ(want.path.vertices, got.path.vertices);
  EXPECT_EQ(want.path.edges, got.path.edges);
  EXPECT_EQ(std::bit_cast<uint64_t>(want.path.cost),
            std::bit_cast<uint64_t>(got.path.cost));
  EXPECT_EQ(fresh.last_settled_count(), engine.last_settled_count());
}

TEST(Alt, LandmarksAreDistinct) {
  const RoadNetwork net = BuildTestNetwork(3);
  AltRouter alt(net, EdgeCostFn::Length(net), 6);
  auto lm = alt.landmarks();
  std::sort(lm.begin(), lm.end());
  EXPECT_EQ(std::unique(lm.begin(), lm.end()), lm.end());
  EXPECT_EQ(lm.size(), 6u);
}

}  // namespace
}  // namespace pathrank::routing
