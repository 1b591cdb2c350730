// Micro-benchmark of the last stage every /v1/route request runs: turning
// a ranked answer into its response body. BM_RouteBody times the server's
// writer (WriteRouteBody, json::Writer straight from the RouteResult);
// BM_RouteBodyDom times the json::Object/json::Array DOM plus json::Dump
// that the server used before, kept here as the reference. Both encode
// the same D-TkDI answers (k = 10, threshold 0.6) for 200 distinct pairs
// on perfbench's 24 x 24 network (net seed 42), one answer per iteration,
// into a fresh string as the server does, and must produce the same bytes.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "core/model.h"
#include "graph/network_builder.h"
#include "serving/http_server.h"
#include "serving/json.h"
#include "serving/route_planner.h"
#include "serving/serving_engine.h"

namespace {

using namespace pathrank;
using namespace pathrank::serving;

constexpr int kPairs = 200;

/// The answers: what RoutePlanner::Plan returns for 200 distinct
/// reachable pairs, scored by a random-init model of perfbench's shape.
const std::vector<RouteResult>& Answers() {
  static const std::vector<RouteResult> answers = [] {
    graph::SyntheticNetworkConfig net_cfg;
    net_cfg.rows = 24;
    net_cfg.cols = 24;
    net_cfg.seed = 42;
    const auto network = graph::BuildSyntheticNetwork(net_cfg);
    core::PathRankConfig model_cfg;
    model_cfg.embedding_dim = 64;
    model_cfg.hidden_size = 64;
    model_cfg.seed = 1;
    const core::PathRankModel model(network.num_vertices(), model_cfg);
    ServingEngine engine(network, model);
    RoutePlannerConfig config;
    config.network = &network;
    config.candidates.k = 10;
    config.candidates.similarity_threshold = 0.6;
    config.spur_engine = SpurEngine::kAlt;
    RoutePlanner planner(config, [&engine](std::vector<routing::Path> paths) {
      return engine.ScoreBatch(paths);
    });
    std::vector<RouteResult> out;
    Rng rng(7);
    std::vector<bool> seen(network.num_vertices() * network.num_vertices());
    while (out.size() < kPairs) {
      const auto source =
          static_cast<graph::VertexId>(rng.NextBounded(network.num_vertices()));
      const auto destination =
          static_cast<graph::VertexId>(rng.NextBounded(network.num_vertices()));
      const size_t key =
          static_cast<size_t>(source) * network.num_vertices() + destination;
      if (source == destination || seen[key]) continue;
      seen[key] = true;
      RouteResult result = planner.Plan({source, destination, 0});
      if (result.status == RouteStatus::kOk) out.push_back(std::move(result));
    }
    return out;
  }();
  return answers;
}

template <typename Id>
json::Value IdArray(const std::vector<Id>& ids) {
  json::Array array;
  array.reserve(ids.size());
  for (const Id id : ids) array.emplace_back(static_cast<uint64_t>(id));
  return json::Value(std::move(array));
}

/// The DOM body the server built before json::Writer.
std::string DomRouteBody(const RouteResult& result) {
  json::Array routes;
  routes.reserve(result.ranked.size());
  for (const auto& scored : result.ranked) {
    json::Object route;
    route["score"] = json::Value(scored.score);
    route["cost"] = json::Value(scored.path.cost);
    route["length_m"] = json::Value(scored.path.length_m);
    route["time_s"] = json::Value(scored.path.time_s);
    route["vertices"] = IdArray(scored.path.vertices);
    route["edges"] = IdArray(scored.path.edges);
    routes.push_back(json::Value(std::move(route)));
  }
  json::Object object;
  object["algo"] = json::Value(result.algo);
  object["cache_hit"] = json::Value(result.cache_hit);
  if (result.degraded) object["degraded"] = json::Value(true);
  object["graph_epoch"] = json::Value(result.graph_epoch);
  object["routes"] = json::Value(std::move(routes));
  return json::Dump(json::Value(std::move(object)));
}

std::string WriterRouteBody(const RouteResult& result) {
  std::string body;
  WriteRouteBody(result, &body);
  return body;
}

/// Times `encode` over the answers; fails the case if the two encoders
/// disagree on any answer.
template <typename Encode>
void RunRouteBody(benchmark::State& state, Encode encode) {
  const auto& answers = Answers();
  double bytes = 0;
  double vertices = 0;
  for (const auto& answer : answers) {
    const std::string body = encode(answer);
    if (body != DomRouteBody(answer) || body != WriterRouteBody(answer)) {
      state.SkipWithError("the two encoders disagree");
      return;
    }
    bytes += static_cast<double>(body.size());
    for (const auto& scored : answer.ranked) {
      vertices += static_cast<double>(scored.path.vertices.size());
    }
  }
  size_t next = 0;
  for (auto _ : state) {
    std::string body = encode(answers[next]);
    benchmark::DoNotOptimize(body.data());
    benchmark::ClobberMemory();
    next = (next + 1) % answers.size();
  }
  const auto n = static_cast<double>(answers.size());
  state.counters["body_bytes"] = bytes / n;
  state.counters["vertices"] = vertices / n;
}

void BM_RouteBody(benchmark::State& state) {
  RunRouteBody(state, WriterRouteBody);
}
BENCHMARK(BM_RouteBody)->Unit(benchmark::kMicrosecond);

void BM_RouteBodyDom(benchmark::State& state) {
  RunRouteBody(state, DomRouteBody);
}
BENCHMARK(BM_RouteBodyDom)->Unit(benchmark::kMicrosecond);

}  // namespace
