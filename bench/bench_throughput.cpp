// Throughput benchmark for the parallel compute engine: GEMM GFLOP/s,
// training epoch time, random-walk generation, candidate generation,
// end-to-end HTTP serving latency/QPS/shed rate over the loopback, the
// online route-planning pipeline (cold vs candidate-cached latency +
// routes/s), and snapshot capture/hot-swap latency at 1/2/4/N threads.
// Emits BENCH_throughput.json (override the path with PATHRANK_BENCH_OUT)
// so the perf trajectory is tracked across PRs.
//
//   bench_throughput                  run and write the JSON
//   bench_throughput --check BASELINE additionally compare every metric
//                                     against the committed baseline with
//                                     a relative tolerance
//                                     (PATHRANK_BENCH_TOLERANCE, def 0.30)
//                                     and exit non-zero on regression.
//
// PATHRANK_BENCH_SCALE (tiny|small|paper) sizes the workload.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <set>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/env.h"
#include "common/percentile.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "experiment_common.h"
#include "serving/graph_store.h"
#include "serving/http_server.h"
#include "serving/route_planner.h"

namespace {

using namespace pathrank;

/// Flat metric map: name -> value. Names ending in "_per_s" or containing
/// "gflops" are throughput (higher is better); names ending in "_s" are
/// seconds (lower is better).
using Metrics = std::map<std::string, double>;

/// The candidate strategy every serving section enumerates with.
data::CandidateGenConfig ServingCandidates(
    const bench::ExperimentScale& scale) {
  data::CandidateGenConfig gen;
  gen.k = scale.candidates_k;
  gen.similarity_threshold = 0.6;
  gen.max_enumerated = 300;
  return gen;
}

std::vector<size_t> ThreadCounts() {
  const size_t hw = std::max<unsigned>(1, std::thread::hardware_concurrency());
  std::vector<size_t> counts = {1, 2, 4, hw};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

void BenchGemm(const std::vector<size_t>& thread_counts, Metrics* metrics) {
  constexpr size_t kDim = 256;
  Rng rng(1);
  nn::Matrix a(kDim, kDim);
  nn::Matrix b(kDim, kDim);
  nn::Matrix c(kDim, kDim);
  for (size_t i = 0; i < a.size(); ++i) {
    a.data()[i] = static_cast<float>(rng.NextUniform(-1, 1));
    b.data()[i] = static_cast<float>(rng.NextUniform(-1, 1));
  }
  const double flops_per_call = 2.0 * kDim * kDim * kDim;
  for (size_t threads : thread_counts) {
    SetNumThreads(threads);
    nn::GemmNN(a, b, &c);  // warm-up
    int reps = 0;
    Stopwatch watch;
    while (watch.ElapsedSeconds() < 0.5) {
      nn::GemmNN(a, b, &c);
      ++reps;
    }
    const double seconds = watch.ElapsedSeconds();
    const double gflops = flops_per_call * reps / seconds * 1e-9;
    (*metrics)["gemm256_gflops_t" + std::to_string(threads)] = gflops;
    std::printf("gemm 256^3  threads=%zu  %.2f GFLOP/s\n", threads, gflops);
  }
}

void BenchTraining(const bench::ExperimentScale& scale,
                   const bench::Workload& workload,
                   const std::vector<size_t>& thread_counts,
                   Metrics* metrics) {
  const int epochs = 2;
  for (size_t threads : thread_counts) {
    SetNumThreads(threads);
    core::PathRankConfig model_cfg;
    model_cfg.embedding_dim = 64;
    model_cfg.hidden_size = scale.hidden_size;
    model_cfg.seed = 7;
    core::PathRankModel model(workload.network.num_vertices(), model_cfg);

    core::TrainerConfig train_cfg;
    train_cfg.epochs = epochs;
    train_cfg.batch_size = 32;
    train_cfg.seed = 17;

    Stopwatch watch;
    // Empty validation set: measures the pure training path.
    const auto history = core::TrainPathRank(model, workload.split.train,
                                             data::RankingDataset{},
                                             train_cfg);
    const double per_epoch =
        watch.ElapsedSeconds() / static_cast<double>(history.epochs.size());
    (*metrics)["train_epoch_s_t" + std::to_string(threads)] = per_epoch;
    std::printf("train epoch threads=%zu  %.3f s/epoch (loss %.5f)\n",
                threads, per_epoch, history.epochs.back().train_loss);
  }
}

void BenchWalks(const bench::ExperimentScale& scale,
                const bench::Workload& workload,
                const std::vector<size_t>& thread_counts, Metrics* metrics) {
  embedding::RandomWalkConfig cfg;
  cfg.walk_length = scale.node2vec_walk_length;
  cfg.walks_per_vertex = scale.node2vec_walks;
  const embedding::RandomWalker walker(workload.network, cfg);
  for (size_t threads : thread_counts) {
    SetNumThreads(threads);
    Rng rng(99);
    Stopwatch watch;
    size_t walks = 0;
    do {
      walks += walker.GenerateCorpus(rng).size();
    } while (watch.ElapsedSeconds() < 0.5);
    const double rate = static_cast<double>(walks) / watch.ElapsedSeconds();
    (*metrics)["walks_per_s_t" + std::to_string(threads)] = rate;
    std::printf("walks       threads=%zu  %.0f walks/s\n", threads, rate);
  }
}

void BenchCandidates(const bench::ExperimentScale& scale,
                     const bench::Workload& workload,
                     const std::vector<size_t>& thread_counts,
                     Metrics* metrics) {
  data::CandidateGenConfig cfg;
  cfg.strategy = data::CandidateStrategy::kDiversifiedTopK;
  cfg.k = scale.candidates_k;
  cfg.similarity_threshold = 0.6;
  cfg.max_enumerated = 300;
  // A slice of the workload's trips keeps the serial run bounded.
  const size_t num_trips = std::min<size_t>(workload.trips.size(), 64);
  const std::vector<traj::TripPath> trips(
      workload.trips.begin(), workload.trips.begin() + num_trips);
  for (size_t threads : thread_counts) {
    SetNumThreads(threads);
    Stopwatch watch;
    const auto queries = data::GenerateQueries(workload.network, trips, cfg);
    size_t candidates = 0;
    for (const auto& query : queries) candidates += query.candidates.size();
    const double rate =
        static_cast<double>(candidates) / watch.ElapsedSeconds();
    (*metrics)["candidates_per_s_t" + std::to_string(threads)] = rate;
    std::printf("candidates  threads=%zu  %.0f candidates/s\n", threads,
                rate);
  }
}

// End-to-end HTTP serving over the loopback: closed-loop keep-alive
// clients driving POST /v1/route against an HttpServer front-ending a
// RoutePlanner — the full deployment path (socket + JSON + admission +
// enumeration + scoring). The planner's cache is off, so every request
// pays candidate enumeration and scoring.
// serve_http_shed_rate is measured with max_inflight sized to the client
// count, so it is 0 by construction in a healthy build; any positive
// value means admission control started shedding load it should not have,
// which the baseline check flags as a regression.
void BenchServingHttp(const bench::ExperimentScale& scale,
                      const bench::Workload& workload, Metrics* metrics) {
  core::PathRankConfig model_cfg;
  model_cfg.embedding_dim = 64;
  model_cfg.hidden_size = scale.hidden_size;
  model_cfg.seed = 7;
  const core::PathRankModel model(workload.network.num_vertices(), model_cfg,
                                  core::InitMode::kRandomInit);
  const auto snapshot = serving::ModelSnapshot::Capture(model);

  const size_t threads =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  SetNumThreads(threads);
  const serving::ServingEngine engine(workload.network, snapshot);
  serving::RoutePlannerConfig route_config;
  route_config.network = &workload.network;
  route_config.candidates = ServingCandidates(scale);
  route_config.cache_capacity = 0;
  const serving::RoutePlanner planner(
      route_config, [&engine](std::vector<routing::Path> paths) {
        return engine.ScoreBatch(paths);
      });

  const size_t clients = std::max<size_t>(4, threads);
  serving::HttpServerOptions http_options;
  http_options.bind_address = "127.0.0.1";
  http_options.port = 0;  // ephemeral
  http_options.num_threads = clients;
  http_options.max_inflight = clients;  // closed loop: never saturated

  serving::HttpBackend backend;
  backend.num_vertices = workload.network.num_vertices();
  backend.score = [&engine](std::vector<routing::Path> paths) {
    return engine.ScoreBatch(paths);
  };
  backend.route = [&planner](const serving::RouteRequest& request) {
    return planner.Plan(request);
  };
  serving::HttpServer server(std::move(backend), http_options);
  server.Start();

  // Query mix: the workload trips' endpoints. Pre-rendered request
  // bodies keep the client loop about the wire, not about JSON string
  // building.
  std::vector<std::string> bodies;
  const size_t num_queries = std::min<size_t>(workload.trips.size(), 48);
  bodies.reserve(num_queries);
  for (size_t i = 0; i < num_queries; ++i) {
    bodies.push_back(
        "{\"source\": " + std::to_string(workload.trips[i].source()) +
        ", \"destination\": " +
        std::to_string(workload.trips[i].destination()) + "}");
  }

  std::atomic<size_t> served{0};
  std::atomic<size_t> shed{0};
  std::atomic<size_t> errors{0};
  std::atomic<bool> stop{false};
  std::vector<std::vector<double>> per_client(clients);
  std::vector<std::thread> workers;
  workers.reserve(clients);
  // Warm-up outside the timed window (connection setup, scratch alloc).
  {
    serving::HttpClient warm;
    warm.Connect(server.port());
    warm.Request("POST", "/v1/route", bodies[0]);
  }
  Stopwatch watch;
  for (size_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      // Transport failures (client timeout, connection loss) end this
      // client via the errors counter — an exception escaping the
      // thread would std::terminate the whole bench.
      try {
        serving::HttpClient client;
        client.Connect(server.port());
        size_t i = c;
        while (!stop.load(std::memory_order_relaxed)) {
          Stopwatch per_request;
          const auto response =
              client.Request("POST", "/v1/route", bodies[i % bodies.size()]);
          if (response.status == 200) {
            per_client[c].push_back(per_request.ElapsedSeconds());
            served.fetch_add(1, std::memory_order_relaxed);
          } else if (response.status == 429) {
            shed.fetch_add(1, std::memory_order_relaxed);
          } else {
            // 4xx/5xx must not inflate the gated QPS/latency numbers.
            errors.fetch_add(1, std::memory_order_relaxed);
          }
          i += clients;
        }
      } catch (const std::exception& e) {
        std::fprintf(stderr, "serve http client %zu: %s\n", c, e.what());
        errors.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Run until the sample is big enough for a meaningful p99 (with ~20
  // samples the 0.99 quantile is just the max and gates flakily),
  // wall-capped for slow machines. Error responses end the run
  // early — their latencies are excluded, so looping on them would spin.
  while (served.load(std::memory_order_relaxed) < 200 &&
         errors.load(std::memory_order_relaxed) == 0 &&
         watch.ElapsedSeconds() < 5.0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& worker : workers) worker.join();
  const double wall = watch.ElapsedSeconds();
  server.Stop();

  std::vector<double> latency;
  for (const auto& client_latency : per_client) {
    latency.insert(latency.end(), client_latency.begin(),
                   client_latency.end());
  }
  std::sort(latency.begin(), latency.end());
  // Errors or an empty sample mean the HTTP path is broken, not slow.
  // Fail the bench outright: emitting zero-valued metrics would sail
  // through the CI family gate and could poison a --update baseline
  // with near-zero latencies that mask every future regression.
  if (errors.load() > 0 || latency.empty()) {
    std::fprintf(stderr,
                 "serve http bench failed: %zu error(s), %zu latency "
                 "sample(s)\n",
                 errors.load(), latency.size());
    std::exit(1);
  }
  const double p50 = PercentileSorted(latency, 0.50);
  const double p99 = PercentileSorted(latency, 0.99);
  const double qps = static_cast<double>(served.load()) / wall;
  const size_t attempts = served.load() + shed.load();
  const double shed_rate =
      attempts > 0
          ? static_cast<double>(shed.load()) / static_cast<double>(attempts)
          : 0.0;
  (*metrics)["serve_http_p50_s"] = p50;
  (*metrics)["serve_http_p99_s"] = p99;
  (*metrics)["serve_http_per_s"] = qps;
  (*metrics)["serve_http_shed_rate"] = shed_rate;
  std::printf(
      "serve http  clients=%zu  %.1f QPS  p50 %.2f ms  p99 %.2f ms  "
      "shed %.3f  errors %zu\n",
      clients, qps, p50 * 1e3, p99 * 1e3, shed_rate, errors.load());
}

// Online route planning (RoutePlanner, the /v1/route pipeline): cold =
// candidate enumeration (Yen / D-TkDI) + scoring, warm = LRU-cached
// candidate sets + scoring. Enumeration dominates, so the committed
// baseline documents the gap the cache buys; serve_route_per_s is the
// steady-state (warm) throughput. Latencies are single-caller — the
// concurrency story is measured by the serve_http_* section; this one
// isolates the routing pipeline itself.
void BenchServingRoute(const bench::ExperimentScale& scale,
                       const bench::Workload& workload, Metrics* metrics) {
  core::PathRankConfig model_cfg;
  model_cfg.embedding_dim = 64;
  model_cfg.hidden_size = scale.hidden_size;
  model_cfg.seed = 7;
  const core::PathRankModel model(workload.network.num_vertices(), model_cfg,
                                  core::InitMode::kRandomInit);
  const auto snapshot = serving::ModelSnapshot::Capture(model);

  const size_t threads =
      std::max<unsigned>(1, std::thread::hardware_concurrency());
  SetNumThreads(threads);
  const serving::ServingEngine engine(workload.network, snapshot);

  serving::RoutePlannerConfig route_config;
  route_config.network = &workload.network;
  route_config.candidates = ServingCandidates(scale);
  route_config.cache_capacity = 4096;
  const auto score = [&engine](std::vector<routing::Path> paths) {
    return engine.ScoreBatch(paths);
  };

  // Unique (source, destination) pairs only: a duplicate would be a
  // cache HIT inside the "cold" rounds and would double-count in the
  // warm hit check below.
  std::vector<serving::RouteRequest> queries;
  std::set<std::pair<graph::VertexId, graph::VertexId>> seen;
  for (const auto& trip : workload.trips) {
    if (queries.size() >= 48) break;
    if (seen.emplace(trip.source(), trip.destination()).second) {
      queries.push_back({trip.source(), trip.destination()});
    }
  }

  // Cold: a fresh planner per round, so every Plan is a cache miss and
  // pays the full enumeration.
  std::vector<double> cold;
  Stopwatch cold_watch;
  do {
    const serving::RoutePlanner fresh(route_config, score);
    for (const auto& query : queries) {
      Stopwatch per_query;
      const auto result = fresh.Plan(query);
      cold.push_back(per_query.ElapsedSeconds());
      if (result.status != serving::RouteStatus::kOk) {
        std::fprintf(stderr, "serve route bench: unexpected status %s\n",
                     serving::RouteStatusSlug(result.status));
        std::exit(1);
      }
    }
  } while (cold.size() < 100 && cold_watch.ElapsedSeconds() < 2.0);

  // Warm: one planner primed with every query; steady state is all hits.
  const serving::RoutePlanner planner(route_config, score);
  for (const auto& query : queries) planner.Plan(query);
  std::vector<double> warm;
  size_t served = 0;
  Stopwatch watch;
  do {
    for (const auto& query : queries) {
      Stopwatch per_query;
      planner.Plan(query);
      warm.push_back(per_query.ElapsedSeconds());
      ++served;
    }
  } while (watch.ElapsedSeconds() < 0.5);
  const double wall = watch.ElapsedSeconds();
  if (planner.cache_hits() != served) {
    // Every timed Plan must be a hit (the priming pass seeded all 48
    // keys), or the "warm" numbers silently measure Yen again.
    std::fprintf(stderr,
                 "serve route bench: warm loop missed the cache "
                 "(%llu hits, expected %zu)\n",
                 static_cast<unsigned long long>(planner.cache_hits()),
                 served);
    std::exit(1);
  }

  std::sort(cold.begin(), cold.end());
  std::sort(warm.begin(), warm.end());
  (*metrics)["serve_route_cold_p50_s"] = PercentileSorted(cold, 0.50);
  (*metrics)["serve_route_cold_p99_s"] = PercentileSorted(cold, 0.99);
  (*metrics)["serve_route_warm_p50_s"] = PercentileSorted(warm, 0.50);
  (*metrics)["serve_route_warm_p99_s"] = PercentileSorted(warm, 0.99);
  (*metrics)["serve_route_per_s"] = static_cast<double>(served) / wall;
  std::printf(
      "serve route cold p50 %.2f ms  p99 %.2f ms | warm p50 %.2f ms  "
      "p99 %.2f ms  %.1f routes/s\n",
      PercentileSorted(cold, 0.50) * 1e3, PercentileSorted(cold, 0.99) * 1e3,
      PercentileSorted(warm, 0.50) * 1e3, PercentileSorted(warm, 0.99) * 1e3,
      static_cast<double>(served) / wall);
}

// Cold-path spur-engine shoot-out: the same long-range Yen enumerations
// through the plain-Dijkstra spur engine and through ALT (landmark
// lower bounds, preprocessed once per planner outside the timed
// region), at two graph scales. Cache capacity is zero so every Plan
// pays the full enumeration — exactly the /v1/route miss path. Both
// engines produce bitwise-identical candidate sets (enforced by
// engine_equivalence_test), so the latency gap is pure goal-direction:
// the committed baseline documents ALT's speedup on the large graph.
void BenchServingRouteColdEngines(Metrics* metrics) {
  struct ColdScale {
    const char* name;
    int rows, cols;
    int landmarks;
    int num_queries;
  };
  const ColdScale scales[] = {{"small", 24, 24, 8, 16},
                              {"large", 64, 64, 16, 8}};
  const auto score = [](std::vector<routing::Path> paths) {
    // Deterministic, trivially cheap scorer: rank by cost so the bench
    // isolates enumeration latency from model inference.
    std::vector<serving::ScoredPath> scored;
    scored.reserve(paths.size());
    for (auto& path : paths) {
      serving::ScoredPath sp;
      sp.score = -path.cost;
      sp.path = std::move(path);
      scored.push_back(std::move(sp));
    }
    return scored;
  };
  for (const ColdScale& gs : scales) {
    graph::SyntheticNetworkConfig net_config;
    net_config.rows = gs.rows;
    net_config.cols = gs.cols;
    net_config.seed = 9;
    const graph::RoadNetwork network = graph::BuildSyntheticNetwork(net_config);
    const size_t n = network.num_vertices();
    // Long-range pairs (near-corner to near-corner): the regime where
    // goal-direction matters most and the /v1/route tail lives.
    std::vector<serving::RouteRequest> queries;
    for (int q = 0; q < gs.num_queries; ++q) {
      const auto s = static_cast<graph::VertexId>((q * 37) % (n / 8));
      const auto t =
          static_cast<graph::VertexId>(n - 1 - ((q * 53) % (n / 8)));
      queries.push_back({s, t});
    }
    for (const serving::SpurEngine spur :
         {serving::SpurEngine::kDijkstra, serving::SpurEngine::kAlt}) {
      serving::RoutePlannerConfig config;
      config.network = &network;
      config.cache_capacity = 0;  // every Plan is a cold miss
      config.spur_engine = spur;
      config.num_landmarks = gs.landmarks;
      config.candidates.strategy = data::CandidateStrategy::kTopK;
      config.candidates.k = 6;
      // Planner construction (including the one-time ALT preprocessing
      // for pinned networks) stays outside the timed region.
      const serving::RoutePlanner planner(config, score);
      std::vector<double> latency;
      Stopwatch budget;
      do {
        for (const auto& query : queries) {
          Stopwatch per_query;
          const auto result = planner.Plan(query);
          latency.push_back(per_query.ElapsedSeconds());
          if (result.status != serving::RouteStatus::kOk) {
            std::fprintf(stderr,
                         "serve route cold engine bench: status %s\n",
                         serving::RouteStatusSlug(result.status));
            std::exit(1);
          }
        }
      } while (latency.size() < 48 && budget.ElapsedSeconds() < 3.0);
      std::sort(latency.begin(), latency.end());
      const std::string prefix = std::string("serve_route_cold_") + gs.name +
                                 "_" + serving::SpurEngineName(spur);
      (*metrics)[prefix + "_p50_s"] = PercentileSorted(latency, 0.50);
      (*metrics)[prefix + "_p99_s"] = PercentileSorted(latency, 0.99);
      std::printf("serve route cold %s/%s  p50 %.2f ms  p99 %.2f ms\n",
                  gs.name, serving::SpurEngineName(spur),
                  PercentileSorted(latency, 0.50) * 1e3,
                  PercentileSorted(latency, 0.99) * 1e3);
    }
  }
}

// Live-graph ingestion (/v1/traffic) and what it costs the route path:
// ingest = copy-on-write CSR rebuild + one atomic snapshot publish per
// batch; after-swap = the first route-query wave at the new epoch, when
// every cached candidate set is stale by definition and each query pays
// a full re-enumeration. The gap between serve_route_warm_* and
// serve_route_after_swap_* is the correctness price of epoch-keyed
// invalidation.
void BenchServingGraphSwap(const bench::ExperimentScale& scale,
                           const bench::Workload& workload,
                           Metrics* metrics) {
  core::PathRankConfig model_cfg;
  model_cfg.embedding_dim = 64;
  model_cfg.hidden_size = scale.hidden_size;
  model_cfg.seed = 7;
  const core::PathRankModel model(workload.network.num_vertices(), model_cfg,
                                  core::InitMode::kRandomInit);
  const auto snapshot = serving::ModelSnapshot::Capture(model);

  const serving::ServingEngine engine(workload.network, snapshot);

  serving::GraphStore store{graph::RoadNetwork(workload.network)};
  serving::RoutePlannerConfig route_config;
  route_config.store = &store;
  route_config.candidates = ServingCandidates(scale);
  route_config.cache_capacity = 4096;
  const serving::RoutePlanner planner(
      route_config, [&engine](std::vector<routing::Path> paths) {
        return engine.ScoreBatch(paths);
      });

  std::vector<serving::RouteRequest> queries;
  std::set<std::pair<graph::VertexId, graph::VertexId>> seen;
  for (const auto& trip : workload.trips) {
    if (queries.size() >= 24) break;
    if (seen.emplace(trip.source(), trip.destination()).second) {
      queries.push_back({trip.source(), trip.destination()});
    }
  }
  // Prime so the FIRST post-swap wave measures invalidation, not a cold
  // cache.
  for (const auto& query : queries) planner.Plan(query);

  const size_t num_edges = workload.network.num_edges();
  const size_t batch_size = std::min<size_t>(64, num_edges);
  std::vector<double> ingest;
  std::vector<double> after_swap;
  int round = 0;
  Stopwatch watch;
  do {
    // A rotating window of cost perturbations; alternating 1.25 / 0.8
    // keeps travel times bounded over arbitrarily many rounds.
    const double factor = (round % 2 == 0) ? 1.25 : 0.8;
    const auto current = store.Current();
    std::vector<graph::TrafficUpdate> batch;
    batch.reserve(batch_size);
    for (size_t i = 0; i < batch_size; ++i) {
      graph::TrafficUpdate update;
      update.edge = static_cast<graph::EdgeId>(
          (static_cast<size_t>(round) * batch_size + i) % num_edges);
      update.travel_time_s =
          current->network().edge(update.edge).travel_time_s * factor;
      update.has_travel_time = true;
      batch.push_back(update);
    }
    Stopwatch per_batch;
    const serving::TrafficResult applied = store.ApplyTraffic(batch);
    ingest.push_back(per_batch.ElapsedSeconds());
    if (applied.status != serving::TrafficStatus::kOk) {
      std::fprintf(stderr, "graph swap bench: traffic rejected: %s\n",
                   applied.message.c_str());
      std::exit(1);
    }

    // The first wave after the swap: every query must be a miss (its
    // cached set belongs to the superseded epoch) and must resolve
    // against the new snapshot.
    for (const auto& query : queries) {
      Stopwatch per_query;
      const auto result = planner.Plan(query);
      after_swap.push_back(per_query.ElapsedSeconds());
      if (result.status != serving::RouteStatus::kOk) {
        std::fprintf(stderr, "graph swap bench: unexpected status %s\n",
                     serving::RouteStatusSlug(result.status));
        std::exit(1);
      }
      if (result.cache_hit || result.graph_epoch != applied.epoch) {
        // A hit here means a stale set crossed the epoch boundary — the
        // bench would silently measure the wrong thing (and the serving
        // stack would be broken).
        std::fprintf(stderr,
                     "graph swap bench: stale cache entry served after "
                     "swap (hit=%d epoch=%llu expected %llu)\n",
                     result.cache_hit ? 1 : 0,
                     static_cast<unsigned long long>(result.graph_epoch),
                     static_cast<unsigned long long>(applied.epoch));
        std::exit(1);
      }
    }
    ++round;
  } while (round < 4 ||
           (after_swap.size() < 96 && watch.ElapsedSeconds() < 2.0));

  std::sort(ingest.begin(), ingest.end());
  std::sort(after_swap.begin(), after_swap.end());
  (*metrics)["serve_traffic_ingest_p50_s"] = PercentileSorted(ingest, 0.50);
  (*metrics)["serve_traffic_ingest_p99_s"] = PercentileSorted(ingest, 0.99);
  (*metrics)["serve_route_after_swap_p50_s"] =
      PercentileSorted(after_swap, 0.50);
  (*metrics)["serve_route_after_swap_p99_s"] =
      PercentileSorted(after_swap, 0.99);
  std::printf(
      "serve traffic ingest p50 %.2f ms  p99 %.2f ms | route after swap "
      "p50 %.2f ms  p99 %.2f ms (%d swaps)\n",
      PercentileSorted(ingest, 0.50) * 1e3,
      PercentileSorted(ingest, 0.99) * 1e3,
      PercentileSorted(after_swap, 0.50) * 1e3,
      PercentileSorted(after_swap, 0.99) * 1e3, round);
}

void BenchSnapshotSwap(const bench::ExperimentScale& scale,
                       const bench::Workload& workload, Metrics* metrics) {
  core::PathRankConfig model_cfg;
  model_cfg.embedding_dim = 64;
  model_cfg.hidden_size = scale.hidden_size;
  model_cfg.seed = 7;
  const core::PathRankModel model(workload.network.num_vertices(), model_cfg,
                                  core::InitMode::kRandomInit);

  // Capture cost: the full parameter deep-copy a deployment pays per
  // checkpoint publish.
  constexpr int kCaptures = 10;
  Stopwatch capture_watch;
  std::shared_ptr<const serving::ModelSnapshot> snapshot;
  for (int i = 0; i < kCaptures; ++i) {
    snapshot = serving::ModelSnapshot::Capture(model);
  }
  const double capture_s = capture_watch.ElapsedSeconds() / kCaptures;
  (*metrics)["snapshot_capture_s"] = capture_s;

  // Swap cost under load: the cut-over latency a serving fleet pays per
  // model publish, with uncached route traffic hammering the engine
  // throughout.
  serving::ServingEngine engine(workload.network, snapshot);
  serving::RoutePlannerConfig route_config;
  route_config.network = &workload.network;
  route_config.candidates = ServingCandidates(scale);
  route_config.cache_capacity = 0;
  const serving::RoutePlanner planner(
      route_config, [&engine](std::vector<routing::Path> paths) {
        return engine.ScoreBatch(paths);
      });
  const auto alternate = serving::ModelSnapshot::Capture(model);

  std::atomic<bool> stop{false};
  constexpr size_t kLoadThreads = 3;
  std::vector<std::thread> load;
  for (size_t t = 0; t < kLoadThreads; ++t) {
    load.emplace_back([&, t] {
      size_t i = t;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto& trip = workload.trips[i % workload.trips.size()];
        planner.Plan({trip.source(), trip.destination()});
        ++i;
      }
    });
  }
  constexpr int kSwaps = 2000;
  Stopwatch swap_watch;
  for (int s = 0; s < kSwaps; ++s) {
    engine.SwapSnapshot(s % 2 == 0 ? alternate : snapshot);
  }
  const double swap_s = swap_watch.ElapsedSeconds() / kSwaps;
  stop.store(true);
  for (auto& t : load) t.join();
  (*metrics)["swap_latency_s"] = swap_s;
  std::printf("snapshot    capture %.3f ms  swap-under-load %.3f us\n",
              capture_s * 1e3, swap_s * 1e6);
}

void WriteJson(const std::string& path, const std::string& scale_name,
               const Metrics& metrics) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"scale\": \"" << scale_name << "\",\n";
  out << "  \"hardware_concurrency\": "
      << std::max<unsigned>(1, std::thread::hardware_concurrency()) << ",\n";
  out << "  \"metrics\": {\n";
  size_t i = 0;
  char buf[64];
  for (const auto& [name, value] : metrics) {
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    out << "    \"" << name << "\": " << buf
        << (++i < metrics.size() ? "," : "") << "\n";
  }
  out << "  }\n}\n";
  std::printf("wrote %s\n", path.c_str());
}

/// Minimal reader for the "metrics" object this tool writes: scans for
/// `"name": number` pairs. Good enough for regression checking without a
/// JSON dependency.
Metrics ReadMetrics(const std::string& path) {
  Metrics metrics;
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot read baseline %s\n", path.c_str());
    return metrics;
  }
  std::string line;
  bool in_metrics = false;
  while (std::getline(in, line)) {
    if (line.find("\"metrics\"") != std::string::npos) {
      in_metrics = true;
      continue;
    }
    if (!in_metrics) continue;
    const size_t q1 = line.find('"');
    if (q1 == std::string::npos) continue;
    const size_t q2 = line.find('"', q1 + 1);
    const size_t colon = line.find(':', q2);
    if (q2 == std::string::npos || colon == std::string::npos) continue;
    const std::string name = line.substr(q1 + 1, q2 - q1 - 1);
    metrics[name] = std::strtod(line.c_str() + colon + 1, nullptr);
  }
  return metrics;
}

bool HigherIsBetter(const std::string& name) {
  return name.find("_per_s") != std::string::npos ||
         name.find("gflops") != std::string::npos;
}

int CheckAgainstBaseline(const Metrics& fresh, const std::string& baseline_path,
                         double tolerance) {
  const Metrics baseline = ReadMetrics(baseline_path);
  if (baseline.empty()) {
    std::fprintf(stderr, "no baseline metrics found in %s\n",
                 baseline_path.c_str());
    return 2;
  }
  int failures = 0;
  for (const auto& [name, base_value] : baseline) {
    const auto it = fresh.find(name);
    if (it == fresh.end()) {
      std::fprintf(stderr, "MISSING  %s (in baseline, not measured)\n",
                   name.c_str());
      ++failures;
      continue;
    }
    const double value = it->second;
    bool ok;
    if (HigherIsBetter(name)) {
      ok = value >= base_value * (1.0 - tolerance);
    } else {
      ok = value <= base_value * (1.0 + tolerance);
    }
    std::printf("%-8s %-28s base=%-12.6g now=%-12.6g\n",
                ok ? "OK" : "REGRESSED", name.c_str(), base_value, value);
    if (!ok) ++failures;
  }
  return failures > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    }
  }

  const bench::ExperimentScale scale = bench::ResolveScale();
  std::printf("scale=%s hardware_concurrency=%u\n", scale.name.c_str(),
              std::max<unsigned>(1, std::thread::hardware_concurrency()));
  const bench::Workload workload = bench::BuildWorkload(
      scale, data::CandidateStrategy::kDiversifiedTopK);
  const std::vector<size_t> thread_counts = ThreadCounts();

  Metrics metrics;
  BenchGemm(thread_counts, &metrics);
  BenchWalks(scale, workload, thread_counts, &metrics);
  BenchCandidates(scale, workload, thread_counts, &metrics);
  BenchServingHttp(scale, workload, &metrics);
  BenchServingRoute(scale, workload, &metrics);
  BenchServingRouteColdEngines(&metrics);
  BenchServingGraphSwap(scale, workload, &metrics);
  BenchSnapshotSwap(scale, workload, &metrics);
  BenchTraining(scale, workload, thread_counts, &metrics);

  const std::string out_path =
      EnvString("PATHRANK_BENCH_OUT", "BENCH_throughput.json");
  WriteJson(out_path, scale.name, metrics);

  if (!baseline_path.empty()) {
    const double tolerance = EnvDouble("PATHRANK_BENCH_TOLERANCE", 0.30);
    return CheckAgainstBaseline(metrics, baseline_path, tolerance);
  }
  return 0;
}
