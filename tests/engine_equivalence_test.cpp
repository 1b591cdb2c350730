// Engine-equivalence suite for the pluggable shortest-path seam: both
// ShortestPathEngine adapters (dijkstra, alt) must be EXACT, so
// (1) point-to-point answers agree bitwise across engines on randomized
// synthetic networks, with and without BanSet bans (bans on ALT's target
// tree included), (2) Yen candidate sets produced through any engine are
// bitwise identical to the plain-Dijkstra reference — the acceptance bar
// for swapping a spur engine in production, (3) the tri-state
// SearchResult separates unreachable from cancelled, and (4) a
// RoutePlanner over a live GraphStore never pairs a new snapshot with
// stale ALT tables: a query racing a rebuild falls back to exact Dijkstra
// (algo "dijkstra", alt_fallbacks ticks) and returns to "alt" once the
// artifact catches up. Runs under the ASan and TSan CI jobs.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/deadline.h"
#include "core/model.h"
#include "graph/graph_snapshot.h"
#include "graph/network_builder.h"
#include "routing/ban_set.h"
#include "routing/cost_model.h"
#include "routing/dijkstra.h"
#include "routing/path.h"
#include "routing/preprocessed_graph.h"
#include "routing/shortest_path_engine.h"
#include "routing/yen.h"
#include "serving/graph_store.h"
#include "serving/route_planner.h"
#include "serving/serving_engine.h"

namespace pathrank::routing {
namespace {

graph::RoadNetwork SmallSynthetic(uint64_t seed) {
  graph::SyntheticNetworkConfig config;
  config.rows = 12;
  config.cols = 12;
  config.seed = seed;
  return graph::BuildSyntheticNetwork(config);
}

/// Both adapters over one network + shared ALT tables.
struct EngineSet {
  const graph::RoadNetwork& network;
  EdgeCostFn cost;
  std::shared_ptr<const PreprocessedGraph> tables;
  DijkstraEngine dijkstra;
  AltEngine alt;

  explicit EngineSet(const graph::RoadNetwork& net)
      : network(net),
        cost(EdgeCostFn::TravelTime(net)),
        tables(std::make_shared<const PreprocessedGraph>(net, cost,
                                                         /*num_landmarks=*/6)),
        dijkstra(net),
        alt(net, cost, tables) {}

  std::vector<ShortestPathEngine*> all() {
    return {&dijkstra, &alt};
  }
};

void ExpectSamePath(const Path& expected, const Path& actual,
                    const char* engine_name) {
  EXPECT_EQ(expected.cost, actual.cost) << engine_name;
  EXPECT_EQ(expected.vertices, actual.vertices) << engine_name;
  EXPECT_EQ(expected.edges, actual.edges) << engine_name;
}

/// Deterministic pseudo-random queries without <random> — splitmix64.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

TEST(EngineEquivalence, AllEnginesAgreeOnRandomizedNetworks) {
  for (const uint64_t seed : {11u, 29u, 73u}) {
    const graph::RoadNetwork net = SmallSynthetic(seed);
    EngineSet engines(net);
    const size_t n = net.num_vertices();
    for (int q = 0; q < 40; ++q) {
      const auto s = static_cast<graph::VertexId>(Mix(seed * 131 + q) % n);
      const auto t =
          static_cast<graph::VertexId>(Mix(seed * 131 + q + 1000) % n);
      if (s == t) continue;
      const SearchResult ref =
          engines.dijkstra.FindPath(s, t, engines.cost, nullptr, nullptr);
      for (ShortestPathEngine* engine : engines.all()) {
        const SearchResult got =
            engine->FindPath(s, t, engines.cost, nullptr, nullptr);
        ASSERT_EQ(ref.outcome, got.outcome)
            << engine->name() << " " << s << "->" << t;
        if (ref.found()) ExpectSamePath(ref.path, got.path, engine->name());
      }
    }
  }
}

TEST(EngineEquivalence, AllEnginesAgreeUnderBanPermutations) {
  const graph::RoadNetwork net = SmallSynthetic(/*seed=*/5);
  EngineSet engines(net);
  const size_t n = net.num_vertices();
  BanSet bans(net.num_vertices(), net.num_edges());
  for (int round = 0; round < 24; ++round) {
    bans.Clear();
    // A fresh permutation of banned vertices and edges each round;
    // source and target stay unbanned so some rounds remain reachable.
    const auto s = static_cast<graph::VertexId>(Mix(round * 7 + 1) % n);
    const auto t = static_cast<graph::VertexId>(Mix(round * 7 + 2) % n);
    if (s == t) continue;
    for (int b = 0; b < 6 + round % 5; ++b) {
      const auto v =
          static_cast<graph::VertexId>(Mix(round * 101 + b * 13) % n);
      if (v != s && v != t) bans.BanVertex(v);
      bans.BanEdge(static_cast<graph::EdgeId>(Mix(round * 211 + b * 17) %
                                              net.num_edges()));
    }
    const SearchResult ref =
        engines.dijkstra.FindPath(s, t, engines.cost, &bans, nullptr);
    for (ShortestPathEngine* engine : engines.all()) {
      const SearchResult got =
          engine->FindPath(s, t, engines.cost, &bans, nullptr);
      ASSERT_EQ(ref.outcome, got.outcome)
          << engine->name() << " round " << round;
      if (ref.found()) ExpectSamePath(ref.path, got.path, engine->name());
    }
  }
}

/// ALT runs every query on the target's tree and stops where the tree
/// suffix is clear. A ban deep on the source's tree suffix, or on the
/// tree edge out of the source itself, pushes the answer off the tree;
/// it must still be Dijkstra's, bit for bit.
TEST(EngineEquivalence, BansOnTheTargetTreeMatchDijkstra) {
  for (const uint64_t seed : {5u, 11u, 29u}) {
    const graph::RoadNetwork net = SmallSynthetic(seed);
    EngineSet engines(net);
    const size_t n = net.num_vertices();
    BanSet bans(net.num_vertices(), net.num_edges());
    int checked = 0;
    for (int q = 0; q < 30; ++q) {
      const auto s = static_cast<graph::VertexId>(Mix(seed * 17 + q) % n);
      const auto t =
          static_cast<graph::VertexId>(Mix(seed * 17 + q + 300) % n);
      if (s == t) continue;
      const TargetTree tree = ReverseTree(net, t, engines.cost);
      std::vector<graph::VertexId> suffix;  // s's tree path after s
      for (graph::VertexId v = s; v != t;) {
        v = net.edge(tree.next_edge[v]).to;
        suffix.push_back(v);
      }
      if (suffix.size() < 4) continue;
      ++checked;
      for (int variant = 0; variant < 2; ++variant) {
        bans.Clear();
        if (variant == 0) {
          bans.BanVertex(suffix[suffix.size() - 3]);
        } else {
          bans.BanEdge(tree.next_edge[s]);
        }
        const SearchResult want =
            engines.dijkstra.FindPath(s, t, engines.cost, &bans, nullptr);
        const SearchResult got =
            engines.alt.FindPath(s, t, engines.cost, &bans, nullptr);
        ASSERT_EQ(want.outcome, got.outcome)
            << "seed " << seed << " query " << q << " variant " << variant;
        if (want.found()) {
          EXPECT_EQ(std::bit_cast<uint64_t>(want.path.cost),
                    std::bit_cast<uint64_t>(got.path.cost));
          ExpectSamePath(want.path, got.path, "alt");
        }
      }
    }
    EXPECT_GE(checked, 10) << "seed " << seed;
  }
}

TEST(EngineEquivalence, BannedTargetIsUnreachableNeverCancelled) {
  const graph::RoadNetwork net = graph::BuildTestNetwork();
  EngineSet engines(net);
  BanSet bans(net.num_vertices(), net.num_edges());
  bans.BanVertex(63);  // bans block ARRIVAL: the target becomes unreachable
  for (ShortestPathEngine* engine : engines.all()) {
    const SearchResult r =
        engine->FindPath(0, 63, engines.cost, &bans, nullptr);
    EXPECT_EQ(r.outcome, SearchOutcome::kUnreachable) << engine->name();
  }
  // ...while a banned SOURCE still departs.
  bans.Clear();
  bans.BanVertex(0);
  for (ShortestPathEngine* engine : engines.all()) {
    const SearchResult r =
        engine->FindPath(0, 63, engines.cost, &bans, nullptr);
    EXPECT_EQ(r.outcome, SearchOutcome::kFound) << engine->name();
  }
}

TEST(EngineEquivalence, ExpiredTokenReportsCancelledNotUnreachable) {
  const graph::RoadNetwork net = graph::BuildTestNetwork();
  EngineSet engines(net);
  const CancelToken cancel;
  cancel.Cancel();
  for (ShortestPathEngine* engine : engines.all()) {
    const SearchResult r =
        engine->FindPath(0, 63, engines.cost, nullptr, &cancel);
    EXPECT_EQ(r.outcome, SearchOutcome::kCancelled) << engine->name();
  }
}

/// The production acceptance bar: Yen through ALT (and every other
/// engine) yields the bitwise-identical candidate set to Yen through
/// plain Dijkstra — same paths, same order, same costs.
TEST(EngineEquivalence, YenCandidateSetsAreBitwiseIdenticalAcrossEngines) {
  for (const uint64_t seed : {3u, 17u}) {
    const graph::RoadNetwork net = SmallSynthetic(seed);
    EngineSet engines(net);
    const size_t n = net.num_vertices();
    for (int q = 0; q < 8; ++q) {
      const auto s = static_cast<graph::VertexId>(Mix(seed + q * 37) % n);
      const auto t =
          static_cast<graph::VertexId>(Mix(seed + q * 37 + 500) % n);
      if (s == t) continue;
      const std::vector<Path> ref =
          TopKShortestPaths(net, s, t, engines.cost, /*k=*/6);
      for (ShortestPathEngine* engine : engines.all()) {
        const std::vector<Path> got = TopKShortestPaths(
            net, s, t, engines.cost, /*k=*/6, nullptr, engine);
        ASSERT_EQ(ref.size(), got.size()) << engine->name();
        for (size_t i = 0; i < ref.size(); ++i) {
          ExpectSamePath(ref[i], got[i], engine->name());
        }
      }
    }
  }
}

// ---- (snapshot, artifact) pairing under live swaps ---------------------

core::PathRankConfig TinyModel() {
  core::PathRankConfig cfg;
  cfg.embedding_dim = 8;
  cfg.hidden_size = 12;
  cfg.seed = 3;
  return cfg;
}

/// A swap mid-rebuild must NEVER pair the new snapshot with the old
/// landmark tables: the planner serves the exact Dijkstra fallback
/// (algo "dijkstra", alt_fallbacks ticks) until the artifact catches
/// up, then returns to "alt".
TEST(AltArtifactPairing, MidRebuildQueryFallsBackThenRecovers) {
  serving::GraphStore store(graph::BuildTestNetwork());

  // The hook gates the BACKGROUND rebuild (epoch >= 1); the synchronous
  // boot build passes epoch 0 and must not block.
  std::atomic<bool> hold{true};
  serving::PreprocessOptions pre;
  pre.num_landmarks = 4;
  pre.rebuild_hook = [&hold](uint64_t epoch) {
    if (epoch == 0) return;
    while (hold.load()) std::this_thread::yield();
  };
  store.EnablePreprocessing(pre);

  // The scorer keeps its own network: snapshot references must not
  // outlive the swap below.
  const graph::RoadNetwork score_net = graph::BuildTestNetwork();
  core::PathRankModel model(score_net.num_vertices(), TinyModel());
  serving::ServingEngine engine(score_net, model);

  serving::RoutePlannerConfig config;
  config.store = &store;
  config.cache_capacity = 0;  // every Plan enumerates — no cache masking
  config.spur_engine = serving::SpurEngine::kAlt;
  config.candidates.strategy = data::CandidateStrategy::kTopK;
  config.candidates.k = 4;
  serving::RoutePlanner planner(
      config, [&engine](std::vector<routing::Path> paths) {
        return engine.ScoreBatch(paths);
      });

  // Epoch 0: artifact matches the snapshot, ALT serves.
  const serving::RouteResult warm = planner.Plan({0, 63});
  ASSERT_EQ(warm.status, serving::RouteStatus::kOk);
  EXPECT_EQ(warm.algo, "alt");
  EXPECT_EQ(planner.alt_fallbacks(), 0u);

  // Swap to epoch 1 while the rebuild is gated: the snapshot moves, the
  // artifact cannot. The planner must refuse the stale tables.
  graph::TrafficUpdate update;
  update.edge = 0;
  update.has_travel_time = true;
  update.travel_time_s = 600.0;
  ASSERT_EQ(store.ApplyTraffic({update}).status,
            serving::TrafficStatus::kOk);

  const serving::RouteResult during = planner.Plan({0, 63});
  ASSERT_EQ(during.status, serving::RouteStatus::kOk);
  EXPECT_EQ(during.algo, "dijkstra")
      << "query paired a new snapshot with stale ALT tables";
  EXPECT_EQ(during.graph_epoch, 1u);
  EXPECT_GE(planner.alt_fallbacks(), 1u);

  // Release the rebuild and wait for the artifact to catch up.
  hold.store(false);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const auto artifact = store.CurrentArtifact();
    if (artifact && artifact->epoch == store.epoch()) break;
    std::this_thread::yield();
  }
  const auto artifact = store.CurrentArtifact();
  ASSERT_TRUE(artifact != nullptr);
  ASSERT_EQ(artifact->epoch, 1u) << "rebuild never caught up";

  const serving::RouteResult after = planner.Plan({0, 63});
  ASSERT_EQ(after.status, serving::RouteStatus::kOk);
  EXPECT_EQ(after.algo, "alt");

  const serving::PreprocessingStats stats = store.preprocessing_stats();
  EXPECT_TRUE(stats.enabled);
  EXPECT_EQ(stats.landmarks, 4);
  EXPECT_GE(stats.rebuilds, 1u);
  EXPECT_EQ(stats.epochs_behind, 0u);
}

/// CaptureForQuery returns the snapshot and the artifact under one lock
/// hold, so a caller can assert the pair is internally consistent even
/// while swaps race in another thread.
TEST(AltArtifactPairing, CaptureForQueryIsPairwiseConsistentUnderSwaps) {
  serving::GraphStore store(graph::BuildTestNetwork());
  serving::PreprocessOptions pre;
  pre.num_landmarks = 2;
  store.EnablePreprocessing(pre);

  std::atomic<bool> stop{false};
  std::thread swapper([&] {
    graph::TrafficUpdate update;
    update.edge = 0;
    update.has_travel_time = true;
    for (int i = 0; i < 50 && !stop.load(); ++i) {
      update.travel_time_s = 100.0 + i;
      store.ApplyTraffic({update});
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < 2000; ++i) {
    const serving::GraphQueryView view = store.CaptureForQuery();
    ASSERT_TRUE(view.snapshot != nullptr);
    if (view.artifact != nullptr) {
      // The artifact may legitimately trail the snapshot, never lead it,
      // and its tables must structurally match its own snapshot.
      ASSERT_LE(view.artifact->epoch, view.snapshot->epoch());
      ASSERT_EQ(view.artifact->tables->num_vertices(),
                view.artifact->snapshot->network().num_vertices());
    }
  }
  stop.store(true);
  swapper.join();
}

}  // namespace
}  // namespace pathrank::routing
