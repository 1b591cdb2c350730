// RoutePlanner: the online query -> candidates -> ranked-paths pipeline.
// Asserts (1) ranked output is bitwise identical to the offline
// data::GenerateCandidatePaths + ServingEngine::ScoreBatch composition, (2) a cache
// hit returns bitwise-identical results (and byte-identical HTTP bodies
// modulo the cache_hit flag), (3) the LRU evicts and touches correctly,
// (4) the error taxonomy (unknown vertex, s == d, unreachable, bad k)
// maps to 4xx over HTTP with stable status slugs, (5) the cache holds answers: a hit never calls
// the scorer, a model swap (even one that lands mid-scoring) makes the
// next query re-score on the new snapshot, concurrent identical misses
// score once, a throwing scorer leaves nothing cached, and a
// re-enumeration after a traffic batch reuses the engine's memoised
// scores bitwise, and (6) the
// --spur-engine parser accepts exactly "dijkstra" and "alt".
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/model.h"
#include "data/candidate_generation.h"
#include "graph/network_builder.h"
#include "serving/graph_store.h"
#include "serving/http_server.h"
#include "serving/json.h"
#include "serving/model_snapshot.h"
#include "serving/route_planner.h"
#include "serving/serving_engine.h"
#include "support/http_client.h"

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

/// Planner over a real engine on the 8x8 test grid.
struct PlannerFixture {
  graph::RoadNetwork network = graph::BuildTestNetwork();
  core::PathRankModel model;
  ServingEngine engine;
  RoutePlanner planner;

  static RoutePlannerConfig Config(const graph::RoadNetwork& network,
                                   size_t cache_capacity) {
    RoutePlannerConfig config;
    config.network = &network;
    config.candidates = GenConfig();
    config.cache_capacity = cache_capacity;
    return config;
  }

  explicit PlannerFixture(size_t cache_capacity = 64)
      : model(network.num_vertices(), SmallConfig()),
        engine(network, model),
        planner(Config(network, cache_capacity),
                [this](std::vector<routing::Path> paths) {
                  return engine.ScoreBatch(paths);
                }) {}
};

/// Two disconnected components: 0-1-2 (bidirectional chain) and 3-4.
graph::RoadNetwork BuildDisconnectedNetwork() {
  graph::RoadNetworkBuilder b;
  for (int i = 0; i < 5; ++i) {
    b.AddVertex({57.0 + 0.01 * i, 9.9});
  }
  b.AddBidirectionalEdge(0, 1, 500.0, graph::RoadCategory::kResidential);
  b.AddBidirectionalEdge(1, 2, 500.0, graph::RoadCategory::kResidential);
  b.AddBidirectionalEdge(3, 4, 500.0, graph::RoadCategory::kResidential);
  return b.Build();
}

void ExpectSameRanking(const std::vector<ScoredPath>& actual,
                       const std::vector<ScoredPath>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    // Bitwise: double ==, no tolerance.
    EXPECT_EQ(actual[i].score, expected[i].score) << "rank " << i;
    EXPECT_EQ(actual[i].path.vertices, expected[i].path.vertices);
    EXPECT_EQ(actual[i].path.edges, expected[i].path.edges);
    EXPECT_EQ(actual[i].path.cost, expected[i].path.cost);
  }
}

TEST(RoutePlanner, MatchesOfflinePipelineBitwise) {
  PlannerFixture fx;
  const graph::VertexId source = 0;
  const graph::VertexId destination = 63;

  const auto offline = fx.engine.ScoreBatch(
      data::GenerateCandidatePaths(fx.network, source, destination, GenConfig()));
  ASSERT_GT(offline.size(), 1u);

  const RouteResult result = fx.planner.Plan({source, destination});
  ASSERT_EQ(result.status, RouteStatus::kOk);
  EXPECT_FALSE(result.cache_hit);
  ExpectSameRanking(result.ranked, offline);
  // Ranked means ranked: scores descend.
  for (size_t i = 1; i < result.ranked.size(); ++i) {
    EXPECT_GE(result.ranked[i - 1].score, result.ranked[i].score);
  }
}

TEST(RoutePlanner, PerRequestKOverridesDefault) {
  PlannerFixture fx;
  auto gen = GenConfig();
  gen.k = 2;
  const auto offline = fx.engine.ScoreBatch(
      data::GenerateCandidatePaths(fx.network, 0, 63, gen));

  const RouteResult result = fx.planner.Plan({0, 63, /*k=*/2});
  ASSERT_EQ(result.status, RouteStatus::kOk);
  ExpectSameRanking(result.ranked, offline);
  // Different k = different cache key: the k=2 entry must not shadow a
  // later default-k query.
  const RouteResult full = fx.planner.Plan({0, 63});
  EXPECT_FALSE(full.cache_hit);
  EXPECT_GT(full.ranked.size(), result.ranked.size());
}

TEST(RoutePlanner, CacheHitIsBitwiseIdenticalAndSkipsEnumeration) {
  PlannerFixture fx;
  const RouteResult miss = fx.planner.Plan({5, 60});
  ASSERT_EQ(miss.status, RouteStatus::kOk);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_EQ(fx.planner.stats().cache_misses, 1u);
  EXPECT_EQ(fx.planner.stats().cache_hits, 0u);

  const RouteResult hit = fx.planner.Plan({5, 60});
  ASSERT_EQ(hit.status, RouteStatus::kOk);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(fx.planner.stats().cache_hits, 1u);
  EXPECT_EQ(fx.planner.stats().cache_misses, 1u);
  ExpectSameRanking(hit.ranked, miss.ranked);
}

TEST(RoutePlanner, LruEvictsLeastRecentlyUsed) {
  PlannerFixture fx(/*cache_capacity=*/2);
  const RouteRequest a{0, 63};
  const RouteRequest b{1, 62};
  const RouteRequest c{2, 61};
  EXPECT_FALSE(fx.planner.Plan(a).cache_hit);  // {A}
  EXPECT_FALSE(fx.planner.Plan(b).cache_hit);  // {B, A}
  EXPECT_TRUE(fx.planner.Plan(a).cache_hit);   // touch: {A, B}
  EXPECT_FALSE(fx.planner.Plan(c).cache_hit);  // evicts B: {C, A}
  EXPECT_TRUE(fx.planner.Plan(a).cache_hit);   // A survived the eviction
  EXPECT_FALSE(fx.planner.Plan(b).cache_hit);  // B did not
  EXPECT_EQ(fx.planner.cache_size(), 2u);
}

TEST(RoutePlanner, ZeroCapacityDisablesCache) {
  PlannerFixture fx(/*cache_capacity=*/0);
  EXPECT_FALSE(fx.planner.Plan({0, 63}).cache_hit);
  EXPECT_FALSE(fx.planner.Plan({0, 63}).cache_hit);
  EXPECT_EQ(fx.planner.cache_size(), 0u);
  EXPECT_EQ(fx.planner.stats().cache_hits, 0u);
}

TEST(RoutePlanner, ErrorTaxonomy) {
  PlannerFixture fx;
  const auto n = static_cast<graph::VertexId>(fx.network.num_vertices());

  const RouteResult unknown = fx.planner.Plan({n, 0});
  EXPECT_EQ(unknown.status, RouteStatus::kUnknownVertex);
  EXPECT_TRUE(unknown.ranked.empty());
  EXPECT_NE(unknown.message.find(std::to_string(n)), std::string::npos);

  const RouteResult same = fx.planner.Plan({7, 7});
  EXPECT_EQ(same.status, RouteStatus::kSameVertex);

  const RouteResult too_big =
      fx.planner.Plan({0, 63, fx.planner.config().max_k + 1});
  EXPECT_EQ(too_big.status, RouteStatus::kBadRequest);

  EXPECT_STREQ(RouteStatusSlug(unknown.status), "unknown_vertex");
  EXPECT_STREQ(RouteStatusSlug(same.status), "same_vertex");
  EXPECT_STREQ(RouteStatusSlug(too_big.status), "bad_request");
}

TEST(RoutePlanner, ParseSpurEngineAcceptsOnlyDijkstraAndAlt) {
  SpurEngine engine = SpurEngine::kAlt;
  ASSERT_TRUE(ParseSpurEngine("dijkstra", &engine));
  EXPECT_EQ(engine, SpurEngine::kDijkstra);
  EXPECT_STREQ(SpurEngineName(engine), "dijkstra");
  ASSERT_TRUE(ParseSpurEngine("alt", &engine));
  EXPECT_EQ(engine, SpurEngine::kAlt);
  EXPECT_STREQ(SpurEngineName(engine), "alt");
  // A rejected name leaves the previous choice untouched.
  for (const char* rejected : {"bidi", "bidirectional", "astar", ""}) {
    EXPECT_FALSE(ParseSpurEngine(rejected, &engine)) << rejected;
    EXPECT_EQ(engine, SpurEngine::kAlt) << rejected;
  }
}

TEST(RoutePlanner, ConfiguredDefaultKIsExemptFromMaxK) {
  // max_k bounds the CLIENT's k; the operator's own --k must keep
  // working even when it exceeds the cap.
  graph::RoadNetwork network = graph::BuildTestNetwork();
  const core::PathRankModel model(network.num_vertices(), SmallConfig());
  const ServingEngine engine(network, model);
  RoutePlannerConfig config;
  config.network = &network;
  config.candidates = GenConfig();
  config.candidates.strategy = data::CandidateStrategy::kTopK;
  config.candidates.k = 70;  // above max_k
  config.max_k = 64;
  config.cache_capacity = 4;
  const RoutePlanner planner(
      config, [&engine](std::vector<routing::Path> paths) {
        return engine.ScoreBatch(paths);
      });
  EXPECT_EQ(planner.Plan({0, 63}).status, RouteStatus::kOk);
  EXPECT_EQ(planner.Plan({0, 63, 70}).status, RouteStatus::kBadRequest);
}

TEST(RoutePlanner, UnreachablePairReportedAndNegativelyCached) {
  const auto network = BuildDisconnectedNetwork();
  const core::PathRankModel model(network.num_vertices(), SmallConfig());
  const ServingEngine engine(network, model);
  const RoutePlanner planner(
      PlannerFixture::Config(network, 8),
      [&engine](std::vector<routing::Path> paths) {
        return engine.ScoreBatch(paths);
      });

  const RouteResult miss = planner.Plan({0, 4});
  EXPECT_EQ(miss.status, RouteStatus::kUnreachable);
  EXPECT_FALSE(miss.cache_hit);
  // The dead-end verdict is cached too: the retry skips Yen.
  const RouteResult hit = planner.Plan({0, 4});
  EXPECT_EQ(hit.status, RouteStatus::kUnreachable);
  EXPECT_TRUE(hit.cache_hit);
  // Reachable pairs in the same component still rank.
  EXPECT_EQ(planner.Plan({0, 2}).status, RouteStatus::kOk);
}

TEST(RoutePlanner, ConcurrentPlansAgreeBitwise) {
  PlannerFixture fx;
  const RouteResult expected = fx.planner.Plan({0, 63});
  ASSERT_EQ(expected.status, RouteStatus::kOk);
  constexpr int kThreads = 8;
  std::vector<RouteResult> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { results[t] = fx.planner.Plan({0, 63}); });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& result : results) {
    ASSERT_EQ(result.status, RouteStatus::kOk);
    EXPECT_TRUE(result.cache_hit);  // the sequential miss seeded the cache
    ExpectSameRanking(result.ranked, expected.ranked);
  }
}

// ---- Answer cache ------------------------------------------------------

/// Planner over a swappable engine whose scorer counts its calls. `hook`
/// (when set) runs inside the scorer, before or after the engine scores,
/// so a test can land a swap or an exception mid-query.
struct AnswerCacheFixture {
  graph::RoadNetwork network = graph::BuildTestNetwork();
  core::PathRankModel model_a;
  core::PathRankModel model_b;
  ServingEngine engine;
  std::atomic<int> score_calls{0};
  std::function<void()> hook_before_score;
  std::function<void()> hook_after_score;
  RoutePlanner planner;

  static core::PathRankConfig ConfigWithSeed(uint64_t seed) {
    core::PathRankConfig cfg = SmallConfig();
    cfg.seed = seed;
    return cfg;
  }

  explicit AnswerCacheFixture(
      RoutePlannerConfig config = RoutePlannerConfig())
      : model_a(network.num_vertices(), ConfigWithSeed(3)),
        model_b(network.num_vertices(), ConfigWithSeed(31)),
        engine(network, model_a),
        planner(WithNetwork(std::move(config)),
                [this](std::vector<routing::Path> paths) {
                  score_calls.fetch_add(1);
                  if (hook_before_score) hook_before_score();
                  auto ranked = engine.ScoreBatch(paths);
                  if (hook_after_score) hook_after_score();
                  return ranked;
                }) {}

  RoutePlannerConfig WithNetwork(RoutePlannerConfig config) const {
    config.network = &network;
    config.candidates = GenConfig();
    return config;
  }

  void SwapToB() { engine.SwapSnapshot(ModelSnapshot::Capture(model_b)); }

  /// The offline pipeline on whatever snapshot `engine` serves now.
  std::vector<ScoredPath> Offline(graph::VertexId source,
                                  graph::VertexId destination) const {
    return engine.ScoreBatch(data::GenerateCandidatePaths(
        network, source, destination, GenConfig()));
  }
};

bool RankingsEqual(const std::vector<ScoredPath>& a,
                   const std::vector<ScoredPath>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].score != b[i].score || a[i].path.vertices != b[i].path.vertices) {
      return false;
    }
  }
  return true;
}

TEST(RouteAnswerCache, HitNeverCallsTheScorerAndMatchesTheMissBitwise) {
  AnswerCacheFixture fx;
  const RouteResult miss = fx.planner.Plan({5, 60});
  ASSERT_EQ(miss.status, RouteStatus::kOk);
  EXPECT_FALSE(miss.cache_hit);
  EXPECT_EQ(fx.score_calls.load(), 1);

  for (int i = 0; i < 3; ++i) {
    const RouteResult hit = fx.planner.Plan({5, 60});
    ASSERT_EQ(hit.status, RouteStatus::kOk);
    EXPECT_TRUE(hit.cache_hit);
    EXPECT_EQ(hit.algo, miss.algo);
    ExpectSameRanking(hit.ranked, miss.ranked);
  }
  EXPECT_EQ(fx.score_calls.load(), 1) << "a hit re-ran the scorer";
  EXPECT_EQ(fx.planner.stats().enumerations, 1u);
}

TEST(RouteAnswerCache, SwapSnapshotMakesTheNextQueryRescoreOnTheNewModel) {
  AnswerCacheFixture fx;
  const RouteResult on_a = fx.planner.Plan({0, 63});
  ASSERT_EQ(on_a.status, RouteStatus::kOk);
  ASSERT_TRUE(fx.planner.Plan({0, 63}).cache_hit);

  fx.SwapToB();
  const auto offline_b = fx.Offline(0, 63);
  ASSERT_FALSE(RankingsEqual(on_a.ranked, offline_b))
      << "models too similar to tell the snapshots apart";

  const RouteResult after = fx.planner.Plan({0, 63});
  ASSERT_EQ(after.status, RouteStatus::kOk);
  EXPECT_FALSE(after.cache_hit);
  ExpectSameRanking(after.ranked, offline_b);
  EXPECT_EQ(fx.planner.stats().invalidations, 1u);
  EXPECT_EQ(fx.planner.stats().enumerations, 2u);

  // The re-scored answer is cached at the new generation.
  const int calls = fx.score_calls.load();
  const RouteResult rehit = fx.planner.Plan({0, 63});
  EXPECT_TRUE(rehit.cache_hit);
  ExpectSameRanking(rehit.ranked, offline_b);
  EXPECT_EQ(fx.score_calls.load(), calls);
}

TEST(RouteAnswerCache, SwapThatLandsMidScoringIsNeverServedStale) {
  // The swap runs inside the scorer's first call, so it lands after Plan
  // read the model generation. Whether the scorer still saw the old
  // snapshot (swap after scoring) or already the new one (swap before),
  // the answer is tagged with the OLD generation, and the next query must
  // miss and re-score on the new snapshot.
  for (const bool swap_before_scoring : {false, true}) {
    SCOPED_TRACE(swap_before_scoring ? "swap before scoring"
                                     : "swap after scoring");
    AnswerCacheFixture fx;
    std::atomic<bool> swapped{false};
    std::function<void()> swap_once = [&] {
      if (!swapped.exchange(true)) fx.SwapToB();
    };
    (swap_before_scoring ? fx.hook_before_score : fx.hook_after_score) =
        swap_once;

    const RouteResult first = fx.planner.Plan({0, 63});
    ASSERT_EQ(first.status, RouteStatus::kOk);
    ASSERT_TRUE(swapped.load());

    const auto offline_b = fx.Offline(0, 63);
    const RouteResult next = fx.planner.Plan({0, 63});
    ASSERT_EQ(next.status, RouteStatus::kOk);
    EXPECT_FALSE(next.cache_hit);
    ExpectSameRanking(next.ranked, offline_b);
    EXPECT_EQ(fx.score_calls.load(), 2);
  }
}

TEST(RouteAnswerCache, ConcurrentIdenticalMissesMakeOneScorerCall) {
  constexpr int kThreads = 6;
  std::atomic<bool> gate_armed{false};
  const RoutePlanner* planner_ptr = nullptr;
  RoutePlannerConfig config;
  config.cache_capacity = 64;
  config.enumeration_hook = [&] {
    if (!gate_armed.load()) return;
    // Hold the leader until every other thread waits on its flight.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (planner_ptr->stats().single_flight_waits <
               static_cast<uint64_t>(kThreads - 1) &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  };
  AnswerCacheFixture fx(config);
  planner_ptr = &fx.planner;

  gate_armed.store(true);
  std::atomic<bool> start{false};
  std::vector<RouteResult> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!start.load()) std::this_thread::yield();
      results[static_cast<size_t>(t)] = fx.planner.Plan({3, 60});
    });
  }
  start.store(true);
  for (auto& thread : threads) thread.join();
  gate_armed.store(false);

  EXPECT_EQ(fx.planner.stats().single_flight_waits,
            static_cast<uint64_t>(kThreads - 1));
  EXPECT_EQ(fx.planner.stats().enumerations, 1u);
  EXPECT_EQ(fx.score_calls.load(), 1);
  const auto offline = fx.Offline(3, 60);
  for (int t = 0; t < kThreads; ++t) {
    const RouteResult& result = results[static_cast<size_t>(t)];
    ASSERT_EQ(result.status, RouteStatus::kOk) << "thread " << t;
    EXPECT_FALSE(result.cache_hit);
    ExpectSameRanking(result.ranked, offline);
  }
}

TEST(RouteAnswerCache, ThrowingScorerLeavesNothingCached) {
  // Both miss paths: the single-flight leader (deadline-free) and the
  // cancellable path (deadline-bounded).
  for (const bool bounded : {false, true}) {
    SCOPED_TRACE(bounded ? "deadline-bounded" : "deadline-free");
    AnswerCacheFixture fx;
    std::atomic<bool> fail{true};
    fx.hook_after_score = [&] {
      if (fail.exchange(false)) throw std::runtime_error("injected");
    };
    RouteRequest request{0, 63};
    if (bounded) request.deadline = Deadline::AfterMs(600'000);

    EXPECT_THROW(fx.planner.Plan(request), std::runtime_error);
    EXPECT_EQ(fx.planner.cache_size(), 0u);

    const RouteResult retry = fx.planner.Plan(request);
    ASSERT_EQ(retry.status, RouteStatus::kOk);
    EXPECT_FALSE(retry.cache_hit);
    ExpectSameRanking(retry.ranked, fx.Offline(0, 63));
    EXPECT_EQ(fx.planner.stats().enumerations, 2u);
    EXPECT_EQ(fx.planner.cache_size(), 1u);
  }
}

TEST(RouteAnswerCache, ReEnumerationAfterTrafficReusesScoresBitwise) {
  // Every traffic batch invalidates every cached answer; the candidates
  // the re-enumeration finds again are served from the engine's score
  // memo, and each answer still equals the offline pipeline at its epoch
  // scored by an engine that has never seen these paths.
  const graph::RoadNetwork network = graph::BuildTestNetwork();
  const core::PathRankModel model(network.num_vertices(), SmallConfig());
  const ServingEngine engine(network, model);
  GraphStore store(graph::BuildTestNetwork());
  RoutePlannerConfig config;
  config.store = &store;
  config.candidates = GenConfig();
  const RoutePlanner planner(config, [&engine](std::vector<routing::Path> paths) {
    return engine.ScoreBatch(std::move(paths));
  });

  const std::vector<RouteRequest> requests{{0, 63}, {7, 56}, {3, 60}, {21, 42}};
  for (size_t round = 0; round < 4; ++round) {
    SCOPED_TRACE(round);
    for (const auto& request : requests) {
      const RouteResult result = planner.Plan(request);
      ASSERT_EQ(result.status, RouteStatus::kOk);
      EXPECT_FALSE(result.cache_hit);
      EXPECT_EQ(result.graph_epoch, round);
      const ServingEngine fresh(network, model);
      ExpectSameRanking(
          result.ranked,
          fresh.ScoreBatch(data::GenerateCandidatePaths(
              store.Current()->network(), request.source,
              request.destination, config.candidates)));
    }
    // Slow one edge a little: the epoch moves, most candidates do not.
    graph::TrafficUpdate update;
    update.edge = static_cast<graph::EdgeId>(7 * round);
    update.travel_time_s =
        store.Current()->network().edge(update.edge).travel_time_s * 1.5;
    update.has_travel_time = true;
    ASSERT_EQ(store.ApplyTraffic({update}).status, TrafficStatus::kOk);
  }
  EXPECT_EQ(planner.stats().invalidations, 3 * requests.size());
  EXPECT_GT(engine.memo_stats().hits, 0u);
}

// ---- HTTP mapping ------------------------------------------------------

/// Loopback server whose route seam is a real RoutePlanner. /v1/route
/// delegates vertex range checking to the planner regardless of
/// backend.num_vertices (so out-of-range ids earn the unknown_vertex
/// slug) — the taxonomy tests below therefore exercise exactly what a
/// production `pathrank_cli serve` emits.
struct RouteServerFixture {
  graph::RoadNetwork network = graph::BuildTestNetwork();
  core::PathRankModel model;
  ServingEngine engine;
  RoutePlanner planner;
  HttpServer server;

  static HttpServerOptions ServerOptions() {
    HttpServerOptions options;
    options.port = 0;  // ephemeral
    options.num_threads = 4;
    options.max_inflight = 8;
    return options;
  }

  HttpBackend Backend() {
    HttpBackend backend;
    backend.score = [this](std::vector<routing::Path> paths) {
      return engine.ScoreBatch(paths);
    };
    backend.route = [this](const RouteRequest& request) {
      return planner.Plan(request);
    };
    return backend;
  }

  RouteServerFixture()
      : model(network.num_vertices(), SmallConfig()),
        engine(network, model),
        planner(PlannerFixture::Config(network, 64),
                [this](std::vector<routing::Path> paths) {
                  return engine.ScoreBatch(paths);
                }),
        server(Backend(), ServerOptions()) {
    server.Start();
  }
};

std::string RouteBody(graph::VertexId source, graph::VertexId destination,
                      int k = 0) {
  std::string body = "{\"source\": " + std::to_string(source) +
                     ", \"destination\": " + std::to_string(destination);
  if (k > 0) body += ", \"k\": " + std::to_string(k);
  return body + "}";
}

TEST(RouteHttp, RoundTripMatchesOfflinePipelineBitwise) {
  RouteServerFixture fx;
  const auto offline = fx.engine.ScoreBatch(
      data::GenerateCandidatePaths(fx.network, 3, 59, GenConfig()));
  ASSERT_GT(offline.size(), 1u);

  HttpClient client;
  client.Connect(fx.server.port());
  const auto response = client.Request("POST", "/v1/route", RouteBody(3, 59));
  ASSERT_EQ(response.status, 200);

  const auto parsed = json::Parse(response.body);
  ASSERT_TRUE(parsed.has_value());
  const json::Value* cache_hit = parsed->Find("cache_hit");
  ASSERT_NE(cache_hit, nullptr);
  EXPECT_FALSE(cache_hit->bool_value());
  const json::Value* routes = parsed->Find("routes");
  ASSERT_NE(routes, nullptr);
  ASSERT_EQ(routes->array().size(), offline.size());
  for (size_t i = 0; i < offline.size(); ++i) {
    const json::Value& route = routes->array()[i];
    // Shortest-round-trip doubles: the wire value parses back BITWISE
    // equal to the in-process score.
    EXPECT_EQ(route.Find("score")->number_value(), offline[i].score);
    EXPECT_EQ(route.Find("length_m")->number_value(),
              offline[i].path.length_m);
    EXPECT_EQ(route.Find("time_s")->number_value(), offline[i].path.time_s);
    EXPECT_EQ(route.Find("cost")->number_value(), offline[i].path.cost);
    const auto& vertices = route.Find("vertices")->array();
    ASSERT_EQ(vertices.size(), offline[i].path.vertices.size());
    for (size_t v = 0; v < vertices.size(); ++v) {
      EXPECT_EQ(static_cast<graph::VertexId>(vertices[v].number_value()),
                offline[i].path.vertices[v]);
    }
    const auto& edges = route.Find("edges")->array();
    ASSERT_EQ(edges.size(), offline[i].path.edges.size());
    for (size_t e = 0; e < edges.size(); ++e) {
      EXPECT_EQ(static_cast<graph::EdgeId>(edges[e].number_value()),
                offline[i].path.edges[e]);
    }
  }
}

TEST(RouteHttp, CachedResponseIsByteIdenticalModuloCacheFlag) {
  RouteServerFixture fx;
  HttpClient client;
  client.Connect(fx.server.port());
  const auto first = client.Request("POST", "/v1/route", RouteBody(10, 45));
  const auto second = client.Request("POST", "/v1/route", RouteBody(10, 45));
  ASSERT_EQ(first.status, 200);
  ASSERT_EQ(second.status, 200);
  ASSERT_NE(first.body.find("\"cache_hit\":false"), std::string::npos);
  ASSERT_NE(second.body.find("\"cache_hit\":true"), std::string::npos);
  // Same candidates, same snapshot, shortest-round-trip serialization:
  // the bodies must agree byte for byte once the flag is normalised.
  std::string normalized = second.body;
  normalized.replace(normalized.find("\"cache_hit\":true"),
                     std::string("\"cache_hit\":true").size(),
                     "\"cache_hit\":false");
  EXPECT_EQ(normalized, first.body);
}

TEST(RouteHttp, ErrorTaxonomyMapsTo4xx) {
  RouteServerFixture fx;
  const auto n = static_cast<graph::VertexId>(fx.network.num_vertices());
  HttpClient client;
  client.Connect(fx.server.port());
  const std::string target = "/v1/route";
  const auto unknown =
      client.Request("POST", target, RouteBody(n, 0));
  EXPECT_EQ(unknown.status, 400);
  EXPECT_NE(unknown.body.find("\"status\":\"unknown_vertex\""),
            std::string::npos)
      << unknown.body;

  const auto same = client.Request("POST", target, RouteBody(4, 4));
  EXPECT_EQ(same.status, 400);
  EXPECT_NE(same.body.find("\"status\":\"same_vertex\""), std::string::npos);

  const auto bad_k =
      client.Request("POST", target,
                     "{\"source\": 0, \"destination\": 9, \"k\": 0}");
  EXPECT_EQ(bad_k.status, 400);
  // HTTP-layer validation failures carry the slug too, not a bare error.
  EXPECT_NE(bad_k.body.find("\"status\":\"bad_request\""),
            std::string::npos)
      << bad_k.body;
  const auto negative_k =
      client.Request("POST", target,
                     "{\"source\": 0, \"destination\": 9, \"k\": -3}");
  EXPECT_EQ(negative_k.status, 400);
  const auto huge_k = client.Request(
      "POST", target, RouteBody(0, 9, fx.planner.config().max_k + 1));
  EXPECT_EQ(huge_k.status, 400);
  EXPECT_NE(huge_k.body.find("\"status\":\"bad_request\""),
            std::string::npos);

  const auto bad_json =
      client.Request("POST", target, "{\"source\": }");
  EXPECT_EQ(bad_json.status, 400);
  // Unparseable JSON carries the slug like every other 4xx — clients
  // branch on "status", and this path used to return a bare error.
  EXPECT_NE(bad_json.body.find("\"status\":\"bad_request\""),
            std::string::npos)
      << bad_json.body;
  const auto wrong_method = client.Request("GET", target);
  EXPECT_EQ(wrong_method.status, 405);
}

TEST(RouteHttp, UnreachablePairIs404) {
  const auto network = BuildDisconnectedNetwork();
  const core::PathRankModel model(network.num_vertices(), SmallConfig());
  const ServingEngine engine(network, model);
  const RoutePlanner planner(
      PlannerFixture::Config(network, 8),
      [&engine](std::vector<routing::Path> paths) {
        return engine.ScoreBatch(paths);
      });
  HttpBackend backend;
  backend.score = [&engine](std::vector<routing::Path> paths) {
    return engine.ScoreBatch(paths);
  };
  backend.route = [&planner](const RouteRequest& request) {
    return planner.Plan(request);
  };
  HttpServer server(std::move(backend),
                    RouteServerFixture::ServerOptions());
  server.Start();
  HttpClient client;
  client.Connect(server.port());
  const auto response = client.Request("POST", "/v1/route", RouteBody(0, 4));
  EXPECT_EQ(response.status, 404);
  EXPECT_NE(response.body.find("\"status\":\"unreachable\""),
            std::string::npos)
      << response.body;
  server.Stop();
}

TEST(RouteHttp, MissingRouteBackendIs404) {
  // A server wired without the route seam must answer 404 on /v1/route,
  // not crash on a null std::function.
  graph::RoadNetwork network = graph::BuildTestNetwork();
  const core::PathRankModel model(network.num_vertices(), SmallConfig());
  const ServingEngine engine(network, model);
  HttpBackend backend;
  backend.score = [&engine](std::vector<routing::Path> paths) {
    return engine.ScoreBatch(paths);
  };
  HttpServer server(std::move(backend),
                    RouteServerFixture::ServerOptions());
  server.Start();
  HttpClient client;
  client.Connect(server.port());
  EXPECT_EQ(client.Request("POST", "/v1/route", RouteBody(0, 9)).status, 404);
  server.Stop();
}

}  // namespace
}  // namespace pathrank::serving
