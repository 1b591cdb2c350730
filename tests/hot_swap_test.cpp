// Model hot-swap: atomic cut-over semantics (every response attributable
// to exactly one snapshot, no torn reads), old-snapshot lifetime (freed
// only after the last in-flight reference drops, and never pinned by a
// RoutePlanner's cached answers or by the score memo, which a swap
// replaces), and swap under concurrent load with no lost requests.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/model.h"
#include "data/candidate_generation.h"
#include "graph/network_builder.h"
#include "serving/model_snapshot.h"
#include "serving/route_planner.h"
#include "serving/serving_engine.h"

namespace pathrank::serving {
namespace {

core::PathRankConfig ConfigWithSeed(uint64_t seed) {
  core::PathRankConfig cfg;
  cfg.embedding_dim = 8;
  cfg.hidden_size = 12;
  cfg.seed = seed;
  return cfg;
}

struct SwapFixture {
  graph::RoadNetwork network = graph::BuildTestNetwork();
  core::PathRankModel model_a;
  core::PathRankModel model_b;
  /// One candidate set per query, the way RoutePlanner enumerates them.
  std::vector<std::vector<routing::Path>> queries;

  SwapFixture()
      : model_a(network.num_vertices(), ConfigWithSeed(3)),
        model_b(network.num_vertices(), ConfigWithSeed(31)) {
    data::CandidateGenConfig gen;
    gen.k = 5;
    for (const auto& [source, destination] :
         std::vector<std::pair<graph::VertexId, graph::VertexId>>{
             {0, 63}, {7, 56}, {3, 60}, {21, 42}, {14, 49}, {8, 55}}) {
      queries.push_back(
          data::GenerateCandidatePaths(network, source, destination, gen));
    }
  }
};

/// True when `got` is bitwise identical to `expected` (scores and paths).
bool SameRanking(const std::vector<ScoredPath>& expected,
                 const std::vector<ScoredPath>& got) {
  if (expected.size() != got.size()) return false;
  for (size_t i = 0; i < expected.size(); ++i) {
    if (expected[i].score != got[i].score ||
        expected[i].path.vertices != got[i].path.vertices) {
      return false;
    }
  }
  return true;
}

TEST(HotSwap, SwapServesNewSnapshotAndReturnsOld) {
  SwapFixture fx;
  const auto snap_a = ModelSnapshot::Capture(fx.model_a);
  const auto snap_b = ModelSnapshot::Capture(fx.model_b);
  ServingEngine engine(fx.network, snap_a);

  const ServingEngine reference_b(fx.network, snap_b);
  const auto& q = fx.queries[0];
  const auto ref_a = engine.ScoreBatch(q);
  const auto ref_b = reference_b.ScoreBatch(q);
  ASSERT_FALSE(SameRanking(ref_a, ref_b))
      << "models too similar to attribute responses";

  EXPECT_EQ(engine.swap_count(), 0u);
  const auto old = engine.SwapSnapshot(snap_b);
  EXPECT_EQ(old.get(), snap_a.get());
  EXPECT_EQ(engine.shared_snapshot().get(), snap_b.get());
  EXPECT_EQ(engine.swap_count(), 1u);
  EXPECT_TRUE(SameRanking(ref_b, engine.ScoreBatch(q)));
}

TEST(HotSwap, RejectsMismatchedSnapshot) {
  SwapFixture fx;
  ServingEngine engine(fx.network, ModelSnapshot::Capture(fx.model_a));
  const core::PathRankModel tiny(4, ConfigWithSeed(1));
  EXPECT_THROW(engine.SwapSnapshot(ModelSnapshot::Capture(tiny)),
               std::exception);
}

TEST(HotSwap, OldSnapshotFreedOnlyAfterLastInFlightReference) {
  SwapFixture fx;
  auto snap_a = ModelSnapshot::Capture(fx.model_a);
  std::weak_ptr<const ModelSnapshot> weak_a = snap_a;
  ServingEngine engine(fx.network, snap_a);
  snap_a.reset();  // the engine now holds the only long-lived reference

  // Simulate an in-flight request: every scoring call copies the served
  // snapshot handle once at entry and scores on that copy.
  std::shared_ptr<const ModelSnapshot> in_flight = engine.shared_snapshot();
  ASSERT_EQ(in_flight.get(), weak_a.lock().get());

  auto old = engine.SwapSnapshot(ModelSnapshot::Capture(fx.model_b));
  old.reset();
  // The engine dropped A, but the in-flight request still pins it.
  EXPECT_FALSE(weak_a.expired());
  in_flight.reset();
  EXPECT_TRUE(weak_a.expired());
}

TEST(HotSwap, ScoreMemoLivesAndDiesWithItsSnapshot) {
  SwapFixture fx;
  auto snap_a = ModelSnapshot::Capture(fx.model_a);
  std::weak_ptr<const ModelSnapshot> weak_a = snap_a;
  ServingEngine engine(fx.network, std::move(snap_a));

  // Fill A's memo, and hit it.
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& q : fx.queries) engine.ScoreBatch(q);
  }
  const uint64_t hits_on_a = engine.memo_stats().hits;
  ASSERT_GT(hits_on_a, 0u);
  ASSERT_GT(engine.memo_stats().held_ids, 0u);

  // The swap installs an empty memo, and A is still freed as soon as the
  // returned handle drops: its memo pins nothing.
  engine.SwapSnapshot(ModelSnapshot::Capture(fx.model_b)).reset();
  EXPECT_TRUE(weak_a.expired());
  EXPECT_EQ(engine.memo_stats().held_ids, 0u);

  // Every score on B equals a fresh engine's on B: the first pass misses
  // every row (no score of A is served), the second hits every row.
  const ServingEngine fresh_b(fx.network, ModelSnapshot::Capture(fx.model_b));
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& q : fx.queries) {
      EXPECT_TRUE(SameRanking(fresh_b.ScoreBatch(q), engine.ScoreBatch(q)));
    }
    if (pass == 0) {
      EXPECT_EQ(engine.memo_stats().hits, hits_on_a);
    }
  }
  EXPECT_EQ(engine.memo_stats().hits, 2 * hits_on_a);
}

TEST(HotSwap, CachedRouteAnswersPinNoSnapshot) {
  SwapFixture fx;
  auto snap_a = ModelSnapshot::Capture(fx.model_a);
  std::weak_ptr<const ModelSnapshot> weak_a = snap_a;
  ServingEngine engine(fx.network, std::move(snap_a));
  RoutePlannerConfig config;
  config.network = &fx.network;
  config.candidates.k = 5;
  const RoutePlanner planner(config, [&engine](std::vector<routing::Path> paths) {
    return engine.ScoreBatch(paths);
  });

  // Warm: every answer below is scored on A and cached.
  const std::vector<RouteRequest> requests{{0, 63}, {7, 56}, {3, 60}};
  for (const auto& request : requests) {
    ASSERT_EQ(planner.Plan(request).status, RouteStatus::kOk);
    ASSERT_TRUE(planner.Plan(request).cache_hit);
  }
  ASSERT_EQ(planner.cache_size(), requests.size());

  // Swap and drop the returned handle: nothing else may keep A alive,
  // although the planner still holds every answer A scored.
  engine.SwapSnapshot(ModelSnapshot::Capture(fx.model_b)).reset();
  EXPECT_TRUE(weak_a.expired());
  EXPECT_EQ(planner.cache_size(), requests.size());

  // And those answers are not served: the next query re-scores on B.
  const RouteResult after = planner.Plan(requests[0]);
  EXPECT_FALSE(after.cache_hit);
  EXPECT_TRUE(SameRanking(
      engine.ScoreBatch(data::GenerateCandidatePaths(
          fx.network, requests[0].source, requests[0].destination,
          config.candidates)),
      after.ranked));
}

TEST(HotSwap, ConcurrentLoadLosesNoRequestsAndEveryResponseIsAttributable) {
  SwapFixture fx;
  const auto snap_a = ModelSnapshot::Capture(fx.model_a);
  const auto snap_b = ModelSnapshot::Capture(fx.model_b);
  ServingOptions options;
  ServingEngine engine(fx.network, snap_a, options);

  // Per-query references on both snapshots, via single-threaded engines.
  const ServingEngine reference_b(fx.network, snap_b, options);
  std::vector<std::vector<ScoredPath>> ref_a;
  std::vector<std::vector<ScoredPath>> ref_b;
  for (const auto& q : fx.queries) {
    ref_a.push_back(engine.ScoreBatch(q));
    ref_b.push_back(reference_b.ScoreBatch(q));
  }

  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 12;
  std::atomic<size_t> completed{0};
  std::atomic<int> unattributable{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < fx.queries.size(); ++i) {
          const size_t q = (t + round + i) % fx.queries.size();
          const auto got = engine.ScoreBatch(fx.queries[q]);
          // A torn read (half old weights, half new) would match neither.
          if (!SameRanking(ref_a[q], got) && !SameRanking(ref_b[q], got)) {
            unattributable.fetch_add(1);
          }
          completed.fetch_add(1);
        }
      }
    });
  }
  // Flip snapshots back and forth while the load runs.
  constexpr int kSwaps = 20;
  for (int s = 0; s < kSwaps; ++s) {
    engine.SwapSnapshot(s % 2 == 0 ? snap_b : snap_a);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(completed.load(), kThreads * kRounds * fx.queries.size());
  EXPECT_EQ(unattributable.load(), 0);
  EXPECT_EQ(engine.swap_count(), static_cast<uint64_t>(kSwaps));

  // After the dust settles the engine serves the last-swapped snapshot.
  const auto final_snapshot = engine.shared_snapshot();
  EXPECT_EQ(final_snapshot.get(), (kSwaps % 2 == 1 ? snap_b : snap_a).get());
}

}  // namespace
}  // namespace pathrank::serving
