// Epoch-versioned live graph: GraphSnapshot/GraphStore swap semantics,
// the epoch-keyed answer cache, and the single-flight enumeration
// gate — the concurrency contract behind POST /v1/traffic. Asserts
// (1) concurrent route queries during a swap storm are each attributable
// to exactly ONE epoch (the ranking bitwise matches the reference for
// the graph state that epoch names — no torn reads), (2) the superseded
// snapshot is freed exactly when the last in-flight reference drops,
// (3) a cache entry from epoch N is a miss at N + 1 and the re-scored
// answer bitwise matches a fresh planner on the new graph — negative
// (unreachable) verdicts invalidate too, (4) N identical deadline-free
// queries racing after an invalidation run Yen exactly once and all
// return bitwise-identical sets, and a leader's exception reaches every
// follower (never a half-built set). Runs under both the ASan and TSan
// CI jobs next to hot_swap_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "core/model.h"
#include "graph/graph_snapshot.h"
#include "graph/network_builder.h"
#include "serving/graph_store.h"
#include "serving/route_planner.h"
#include "serving/serving_engine.h"

namespace pathrank::serving {
namespace {

core::PathRankConfig SmallConfig() {
  core::PathRankConfig cfg;
  cfg.embedding_dim = 8;
  cfg.hidden_size = 12;
  cfg.seed = 3;
  return cfg;
}

data::CandidateGenConfig GenConfig() {
  data::CandidateGenConfig gen;
  gen.strategy = data::CandidateStrategy::kDiversifiedTopK;
  gen.k = 5;
  gen.similarity_threshold = 0.6;
  gen.max_enumerated = 200;
  return gen;
}

/// Bitwise ranking comparison (no tolerance), as a predicate so the
/// attribution loop can test a result against BOTH references.
bool SameRanking(const std::vector<ScoredPath>& a,
                 const std::vector<ScoredPath>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].score != b[i].score || a[i].path.cost != b[i].path.cost ||
        a[i].path.vertices != b[i].path.vertices ||
        a[i].path.edges != b[i].path.edges) {
      return false;
    }
  }
  return true;
}

void ExpectSameRanking(const std::vector<ScoredPath>& actual,
                       const std::vector<ScoredPath>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(actual[i].score, expected[i].score) << "rank " << i;
    EXPECT_EQ(actual[i].path.vertices, expected[i].path.vertices);
    EXPECT_EQ(actual[i].path.edges, expected[i].path.edges);
    EXPECT_EQ(actual[i].path.cost, expected[i].path.cost);
  }
}

/// GraphStore + live planner over a real engine on the 8x8 test grid.
struct SwapFixture {
  graph::RoadNetwork network = graph::BuildTestNetwork();
  core::PathRankModel model;
  ServingEngine engine;
  GraphStore store;
  RoutePlanner planner;

  static RoutePlannerConfig Config(size_t cache_capacity) {
    RoutePlannerConfig config;
    config.candidates = GenConfig();
    config.cache_capacity = cache_capacity;
    return config;
  }

  static RoutePlannerConfig WithStore(RoutePlannerConfig config,
                                      const GraphStore& store) {
    config.store = &store;
    return config;
  }

  static RoutePlannerConfig WithNetwork(RoutePlannerConfig config,
                                        const graph::RoadNetwork& network) {
    config.network = &network;
    return config;
  }

  explicit SwapFixture(RoutePlannerConfig config = Config(64))
      : model(network.num_vertices(), SmallConfig()),
        engine(network, model),
        store(graph::BuildTestNetwork()),
        planner(WithStore(std::move(config), store),
                [this](std::vector<routing::Path> paths) {
                  return engine.ScoreBatch(paths);
                }) {}

  RoutePlanner::ScoreFn Score() {
    return [this](std::vector<routing::Path> paths) {
      return engine.ScoreBatch(paths);
    };
  }
};

/// Traffic updates that multiply the given edges' travel times by 100 —
/// enough to push Yen onto different paths.
std::vector<graph::TrafficUpdate> SlowUpdates(
    const graph::RoadNetwork& network, const std::vector<graph::EdgeId>& edges,
    double factor) {
  std::vector<graph::TrafficUpdate> updates;
  updates.reserve(edges.size());
  for (const graph::EdgeId e : edges) {
    graph::TrafficUpdate update;
    update.edge = e;
    update.travel_time_s = network.edge(e).travel_time_s * factor;
    update.has_travel_time = true;
    updates.push_back(update);
  }
  return updates;
}

// ---- GraphSnapshot / GraphStore semantics ------------------------------

TEST(GraphSwap, TrafficRebuildKeepsEdgeIdsStable) {
  const auto base = graph::GraphSnapshot::Wrap(graph::BuildTestNetwork());
  EXPECT_EQ(base->epoch(), 0u);
  EXPECT_EQ(base->num_closed(), 0u);

  graph::TrafficUpdate update;
  update.edge = 7;
  update.travel_time_s = 1234.5;
  update.has_travel_time = true;
  const std::vector<graph::TrafficUpdate> updates{update};
  const auto next = base->WithTraffic(updates);

  EXPECT_EQ(next->epoch(), 1u);
  EXPECT_EQ(next->network().num_edges(), base->network().num_edges());
  EXPECT_EQ(next->network().num_vertices(), base->network().num_vertices());
  EXPECT_EQ(next->network().edge(7).travel_time_s, 1234.5);
  // The receiver is untouched (copy-on-write, not in-place).
  EXPECT_NE(base->network().edge(7).travel_time_s, 1234.5);
  // Every other edge record survives bit-for-bit.
  for (graph::EdgeId e = 0; e < base->network().num_edges(); ++e) {
    if (e == 7) continue;
    EXPECT_EQ(next->network().edge(e).travel_time_s,
              base->network().edge(e).travel_time_s);
    EXPECT_EQ(next->network().edge(e).from, base->network().edge(e).from);
    EXPECT_EQ(next->network().edge(e).to, base->network().edge(e).to);
  }
}

TEST(GraphSwap, ClosureRemovesEdgeFromAdjacencyAndReopeningRestoresIt) {
  const auto base = graph::GraphSnapshot::Wrap(graph::BuildTestNetwork());
  const graph::EdgeId edge = 0;
  const graph::VertexId from = base->network().edge(edge).from;
  const graph::VertexId to = base->network().edge(edge).to;
  ASSERT_NE(base->network().FindEdge(from, to), graph::kInvalidEdge);
  const size_t out_degree = base->network().OutDegree(from);

  graph::TrafficUpdate close;
  close.edge = edge;
  close.has_closed = true;
  close.closed = true;
  const std::vector<graph::TrafficUpdate> close_batch{close};
  const auto closed = base->WithTraffic(close_batch);
  EXPECT_TRUE(closed->IsClosed(edge));
  EXPECT_EQ(closed->num_closed(), 1u);
  // The record survives (stable ids) but no adjacency row yields it.
  EXPECT_EQ(closed->network().num_edges(), base->network().num_edges());
  EXPECT_EQ(closed->network().OutDegree(from), out_degree - 1);
  for (const graph::EdgeId e : closed->network().OutEdges(from)) {
    EXPECT_NE(e, edge);
  }

  graph::TrafficUpdate reopen;
  reopen.edge = edge;
  reopen.has_closed = true;
  reopen.closed = false;
  const std::vector<graph::TrafficUpdate> reopen_batch{reopen};
  const auto reopened = closed->WithTraffic(reopen_batch);
  EXPECT_FALSE(reopened->IsClosed(edge));
  EXPECT_EQ(reopened->network().OutDegree(from), out_degree);
  EXPECT_EQ(reopened->network().FindEdge(from, to),
            base->network().FindEdge(from, to));
}

TEST(GraphSwap, ApplyTrafficValidatesAndIsAllOrNothing) {
  GraphStore store(graph::BuildTestNetwork());
  const size_t num_edges = store.Current()->network().num_edges();

  EXPECT_EQ(store.ApplyTraffic({}).status, TrafficStatus::kEmptyBatch);

  graph::TrafficUpdate good;
  good.edge = 0;
  good.travel_time_s = 99.0;
  good.has_travel_time = true;

  graph::TrafficUpdate unknown = good;
  unknown.edge = static_cast<graph::EdgeId>(num_edges);
  EXPECT_EQ(store.ApplyTraffic({good, unknown}).status,
            TrafficStatus::kUnknownEdge);

  EXPECT_EQ(store.ApplyTraffic({good, good}).status,
            TrafficStatus::kDuplicateEdge);

  graph::TrafficUpdate negative = good;
  negative.edge = 1;
  negative.travel_time_s = -5.0;
  EXPECT_EQ(store.ApplyTraffic({good, negative}).status,
            TrafficStatus::kBadUpdate);

  graph::TrafficUpdate no_effect;
  no_effect.edge = 2;
  EXPECT_EQ(store.ApplyTraffic({good, no_effect}).status,
            TrafficStatus::kBadUpdate);

  // Every rejected batch above contained one valid update; none of it may
  // have been applied, and no epoch was published.
  EXPECT_EQ(store.epoch(), 0u);
  EXPECT_EQ(store.traffic_batches(), 0u);
  EXPECT_EQ(store.Current()->network().edge(0).travel_time_s,
            graph::BuildTestNetwork().edge(0).travel_time_s);

  const TrafficResult ok = store.ApplyTraffic({good});
  EXPECT_EQ(ok.status, TrafficStatus::kOk);
  EXPECT_EQ(ok.epoch, 1u);
  EXPECT_EQ(ok.cost_updates, 1u);
  EXPECT_EQ(store.epoch(), 1u);
  EXPECT_EQ(store.traffic_batches(), 1u);
  EXPECT_EQ(store.Current()->network().edge(0).travel_time_s, 99.0);
}

TEST(GraphSwap, OldSnapshotFreedAfterLastInFlightReferenceDrops) {
  GraphStore store(graph::BuildTestNetwork());
  // An "in-flight query": the one reference a Plan() call holds.
  auto in_flight = store.Current();
  std::weak_ptr<const graph::GraphSnapshot> probe = in_flight;

  graph::TrafficUpdate update;
  update.edge = 0;
  update.travel_time_s = 42.0;
  update.has_travel_time = true;
  ASSERT_EQ(store.ApplyTraffic({update}).status, TrafficStatus::kOk);

  // Swapped out, but the in-flight query still pins it.
  EXPECT_EQ(store.Current()->epoch(), 1u);
  EXPECT_FALSE(probe.expired());
  in_flight.reset();
  // Last reference gone -> freed immediately (no deferred reclamation).
  EXPECT_TRUE(probe.expired());

  // Same contract on the full-replacement (--watch-graph) path, which
  // hands the superseded snapshot back explicitly.
  auto old = store.SwapNetwork(graph::BuildTestNetwork());
  ASSERT_NE(old, nullptr);
  EXPECT_EQ(old->epoch(), 1u);
  EXPECT_EQ(store.Current()->epoch(), 2u);
  EXPECT_EQ(store.Current()->num_closed(), 0u);
  std::weak_ptr<const graph::GraphSnapshot> old_probe = old;
  old.reset();
  EXPECT_TRUE(old_probe.expired());
}

// ---- Attribution under a swap storm ------------------------------------

TEST(GraphSwap, ConcurrentQueriesAttributableToExactlyOneEpoch) {
  SwapFixture fx;
  const std::vector<std::pair<graph::VertexId, graph::VertexId>> queries = {
      {0, 63}, {7, 56}, {5, 60}, {16, 47}};

  // Reference rankings for the two alternating graph states: even epochs
  // serve boot costs, odd epochs the slowed costs. The slowed edges are
  // the spine of the boot best path, x100 — Yen must reroute.
  const RouteResult probe = fx.planner.Plan({0, 63});
  ASSERT_EQ(probe.status, RouteStatus::kOk);
  ASSERT_GE(probe.ranked.size(), 1u);
  const std::vector<graph::EdgeId> spine(
      probe.ranked[0].path.edges.begin(),
      probe.ranked[0].path.edges.begin() +
          std::min<size_t>(4, probe.ranked[0].path.edges.size()));
  const auto slow = SlowUpdates(fx.network, spine, 100.0);
  auto restore = SlowUpdates(fx.network, spine, 1.0);

  const auto slowed_snapshot =
      graph::GraphSnapshot::Wrap(graph::BuildTestNetwork())
          ->WithTraffic(slow);
  const RoutePlanner even_ref(
      SwapFixture::WithNetwork(SwapFixture::Config(0), fx.network),
      fx.Score());
  const RoutePlanner odd_ref(
      SwapFixture::WithNetwork(SwapFixture::Config(0),
                               slowed_snapshot->network()),
      fx.Score());
  std::vector<std::vector<ScoredPath>> even_ranked;
  std::vector<std::vector<ScoredPath>> odd_ranked;
  for (const auto& [s, d] : queries) {
    const RouteResult even = even_ref.Plan({s, d});
    const RouteResult odd = odd_ref.Plan({s, d});
    ASSERT_EQ(even.status, RouteStatus::kOk);
    ASSERT_EQ(odd.status, RouteStatus::kOk);
    even_ranked.push_back(even.ranked);
    odd_ranked.push_back(odd.ranked);
  }
  // The attribution check below is vacuous if the two states rank alike.
  ASSERT_FALSE(SameRanking(even_ranked[0], odd_ranked[0]))
      << "traffic updates too mild to attribute responses";

  constexpr int kThreads = 8;
  constexpr int kRounds = 12;
  constexpr int kSwaps = 20;
  std::atomic<bool> start{false};
  std::atomic<int> unattributable{0};
  std::atomic<int> wrong_epoch_payload{0};

  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      while (!start.load()) std::this_thread::yield();
      for (int round = 0; round < kRounds; ++round) {
        const size_t q = static_cast<size_t>(t + round) % queries.size();
        const RouteResult result =
            fx.planner.Plan({queries[q].first, queries[q].second});
        if (result.status != RouteStatus::kOk) {
          unattributable.fetch_add(1);
          continue;
        }
        // The epoch the result CLAIMS dictates exactly which reference it
        // must match bit-for-bit; matching neither (a torn read) or the
        // other one (misattribution) both fail.
        const auto& expected = (result.graph_epoch % 2 == 0)
                                   ? even_ranked[q]
                                   : odd_ranked[q];
        if (!SameRanking(result.ranked, expected)) {
          wrong_epoch_payload.fetch_add(1);
        }
      }
    });
  }

  std::thread writer([&] {
    while (!start.load()) std::this_thread::yield();
    for (int swap = 0; swap < kSwaps; ++swap) {
      const auto& batch = (swap % 2 == 0) ? slow : restore;
      const TrafficResult applied = fx.store.ApplyTraffic(batch);
      ASSERT_EQ(applied.status, TrafficStatus::kOk);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  start.store(true);
  for (auto& reader : readers) reader.join();
  writer.join();

  EXPECT_EQ(unattributable.load(), 0);
  EXPECT_EQ(wrong_epoch_payload.load(), 0);
  EXPECT_EQ(fx.store.epoch(), static_cast<uint64_t>(kSwaps));
  EXPECT_EQ(fx.store.traffic_batches(), static_cast<uint64_t>(kSwaps));
}

// ---- Epoch-keyed cache semantics ---------------------------------------

TEST(EpochCache, HitAtEpochNIsMissAtEpochNPlusOne) {
  SwapFixture fx;
  const RouteResult miss = fx.planner.Plan({5, 60});
  ASSERT_EQ(miss.status, RouteStatus::kOk);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_EQ(miss.graph_epoch, 0u);
  const RouteResult hit = fx.planner.Plan({5, 60});
  EXPECT_TRUE(hit.cache_hit);
  ExpectSameRanking(hit.ranked, miss.ranked);

  graph::TrafficUpdate update;
  update.edge = 0;
  update.travel_time_s =
      fx.store.Current()->network().edge(0).travel_time_s * 3.0;
  update.has_travel_time = true;
  ASSERT_EQ(fx.store.ApplyTraffic({update}).status, TrafficStatus::kOk);

  // Epoch moved: the cached set is stale by definition and must not be
  // served, whether or not the update touched this route.
  const RouteResult after = fx.planner.Plan({5, 60});
  ASSERT_EQ(after.status, RouteStatus::kOk);
  EXPECT_FALSE(after.cache_hit);
  EXPECT_EQ(after.graph_epoch, 1u);
  EXPECT_EQ(fx.planner.stats().invalidations, 1u);

  // Bitwise equal to a fresh planner pinned to the new graph — the
  // re-enumeration really ran against the swapped-in snapshot.
  const RoutePlanner fresh(
      SwapFixture::WithNetwork(SwapFixture::Config(0),
                               fx.store.Current()->network()),
      fx.Score());
  const RouteResult reference = fresh.Plan({5, 60});
  ASSERT_EQ(reference.status, RouteStatus::kOk);
  ExpectSameRanking(after.ranked, reference.ranked);

  // And the re-enumerated set is cached at the NEW epoch.
  const RouteResult rehit = fx.planner.Plan({5, 60});
  EXPECT_TRUE(rehit.cache_hit);
  EXPECT_EQ(rehit.graph_epoch, 1u);
  ExpectSameRanking(rehit.ranked, after.ranked);
}

TEST(EpochCache, NegativeUnreachableEntriesInvalidateToo) {
  // 0-1-2 and 3-4, bridged by a 2<->3 pair we close through traffic: the
  // unreachable verdict must be cached, and must NOT survive the reopen.
  graph::RoadNetworkBuilder b;
  for (int i = 0; i < 5; ++i) b.AddVertex({57.0 + 0.01 * i, 9.9});
  b.AddBidirectionalEdge(0, 1, 500.0, graph::RoadCategory::kResidential);
  b.AddBidirectionalEdge(1, 2, 500.0, graph::RoadCategory::kResidential);
  b.AddBidirectionalEdge(3, 4, 500.0, graph::RoadCategory::kResidential);
  const graph::EdgeId bridge =
      b.AddBidirectionalEdge(2, 3, 500.0, graph::RoadCategory::kResidential);
  graph::RoadNetwork network = b.Build();

  core::PathRankModel model(network.num_vertices(), SmallConfig());
  ServingEngine engine(network, model);
  GraphStore store(std::move(network));
  RoutePlanner planner(
      SwapFixture::WithStore(SwapFixture::Config(16), store),
      [&engine](std::vector<routing::Path> paths) {
        return engine.ScoreBatch(paths);
      });

  const auto set_closed = [&](bool closed) {
    std::vector<graph::TrafficUpdate> updates;
    for (const graph::EdgeId e : {bridge, bridge + 1}) {
      graph::TrafficUpdate update;
      update.edge = e;
      update.has_closed = true;
      update.closed = closed;
      updates.push_back(update);
    }
    ASSERT_EQ(store.ApplyTraffic(updates).status, TrafficStatus::kOk);
  };

  set_closed(true);  // epoch 1: the components are disconnected
  const RouteResult blocked = planner.Plan({0, 3});
  EXPECT_EQ(blocked.status, RouteStatus::kUnreachable);
  EXPECT_FALSE(blocked.cache_hit);
  EXPECT_EQ(blocked.graph_epoch, 1u);

  const RouteResult blocked_again = planner.Plan({0, 3});
  EXPECT_EQ(blocked_again.status, RouteStatus::kUnreachable);
  EXPECT_TRUE(blocked_again.cache_hit) << "negative results must cache";

  set_closed(false);  // epoch 2: the bridge is back
  const RouteResult reopened = planner.Plan({0, 3});
  EXPECT_EQ(reopened.status, RouteStatus::kOk)
      << "stale negative verdict served after reopening";
  EXPECT_FALSE(reopened.cache_hit);
  EXPECT_EQ(reopened.graph_epoch, 2u);
  EXPECT_GE(planner.stats().invalidations, 1u);
  ASSERT_FALSE(reopened.ranked.empty());
}

// ---- Single-flight -----------------------------------------------------

TEST(SingleFlight, StampedeRunsYenExactlyOnceAndAllSharesAreIdentical) {
  constexpr int kThreads = 8;
  std::atomic<bool> gate_armed{false};
  const RoutePlanner* planner_ptr = nullptr;

  RoutePlannerConfig config = SwapFixture::Config(64);
  config.enumeration_hook = [&] {
    if (!gate_armed.load()) return;
    // Leader of the stampede: hold the enumeration open until every other
    // thread is provably parked in the follower wait — the counter is
    // incremented BEFORE blocking, so waits == kThreads - 1 proves it.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (planner_ptr->stats().single_flight_waits <
               static_cast<uint64_t>(kThreads - 1) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  };
  SwapFixture fx(config);
  planner_ptr = &fx.planner;

  gate_armed.store(true);
  std::atomic<bool> start{false};
  std::vector<RouteResult> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!start.load()) std::this_thread::yield();
      results[static_cast<size_t>(t)] = fx.planner.Plan({0, 63});
    });
  }
  start.store(true);
  for (auto& thread : threads) thread.join();
  gate_armed.store(false);

  // Exactly ONE Yen run served all eight queries.
  EXPECT_EQ(fx.planner.stats().enumerations, 1u);
  EXPECT_EQ(fx.planner.stats().cache_misses, static_cast<uint64_t>(kThreads));
  EXPECT_EQ(fx.planner.stats().single_flight_waits,
            static_cast<uint64_t>(kThreads - 1));

  // All callers (leader and followers alike) got the complete set,
  // bitwise identical, scored fresh through the engine.
  for (int t = 0; t < kThreads; ++t) {
    const RouteResult& result = results[static_cast<size_t>(t)];
    ASSERT_EQ(result.status, RouteStatus::kOk) << "thread " << t;
    EXPECT_FALSE(result.cache_hit);
    EXPECT_EQ(result.graph_epoch, 0u);
    ExpectSameRanking(result.ranked, results[0].ranked);
  }

  // The flight is gone: the next identical query is a plain cache hit.
  const RouteResult hit = fx.planner.Plan({0, 63});
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(fx.planner.stats().enumerations, 1u);
}

TEST(SingleFlight, LeaderExceptionReachesEveryFollowerAndFlightRetires) {
  constexpr int kThreads = 6;
  std::atomic<bool> gate_armed{false};
  const RoutePlanner* planner_ptr = nullptr;

  RoutePlannerConfig config = SwapFixture::Config(64);
  config.enumeration_hook = [&] {
    if (!gate_armed.load()) return;
    // Wait for every follower FIRST so none of them can miss the error
    // and start a flight of their own, THEN fail the enumeration.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (planner_ptr->stats().single_flight_waits <
               static_cast<uint64_t>(kThreads - 1) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    throw std::runtime_error("injected enumeration failure");
  };
  SwapFixture fx(config);
  planner_ptr = &fx.planner;

  gate_armed.store(true);
  std::atomic<bool> start{false};
  std::atomic<int> threw{0};
  std::atomic<int> returned{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      while (!start.load()) std::this_thread::yield();
      try {
        const RouteResult result = fx.planner.Plan({7, 56});
        (void)result;
        returned.fetch_add(1);
      } catch (const std::runtime_error&) {
        threw.fetch_add(1);
      }
    });
  }
  start.store(true);
  for (auto& thread : threads) thread.join();
  gate_armed.store(false);

  // The leader threw and every follower rethrew the SAME failure — nobody
  // got a stale or half-built candidate set back.
  EXPECT_EQ(threw.load(), kThreads);
  EXPECT_EQ(returned.load(), 0);
  EXPECT_EQ(fx.planner.stats().enumerations, 1u);
  EXPECT_EQ(fx.planner.stats().single_flight_waits,
            static_cast<uint64_t>(kThreads - 1));

  // Nothing was cached, the dead flight was retired: the next query runs
  // a fresh (now healthy) enumeration and succeeds.
  const RouteResult recovered = fx.planner.Plan({7, 56});
  ASSERT_EQ(recovered.status, RouteStatus::kOk);
  EXPECT_FALSE(recovered.cache_hit);
  EXPECT_EQ(fx.planner.stats().enumerations, 2u);
}

TEST(SingleFlight, DeadlineBoundedQueriesBypassTheGate) {
  SwapFixture fx;
  // A bounded query must never lead or join a flight: its partial set
  // would be shared. With a generous budget it completes normally — and
  // the coalescing counters stay untouched.
  RouteRequest request{0, 63};
  request.deadline = Deadline::AfterMs(60'000);
  const RouteResult result = fx.planner.Plan(request);
  ASSERT_EQ(result.status, RouteStatus::kOk);
  EXPECT_EQ(fx.planner.stats().single_flight_waits, 0u);
  EXPECT_EQ(fx.planner.stats().enumerations, 1u);
}

}  // namespace
}  // namespace pathrank::serving
