// Micro-benchmarks of the routing substrate: point-to-point Dijkstra and
// the candidate generators across network sizes.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "graph/network_builder.h"
#include "routing/cost_model.h"
#include "routing/dijkstra.h"
#include "routing/diversified.h"
#include "routing/preprocessed_graph.h"
#include "routing/shortest_path_engine.h"
#include "routing/yen.h"

namespace {

using namespace pathrank;
using namespace pathrank::routing;

graph::RoadNetwork MakeNetwork(int side, uint64_t seed = 13) {
  graph::SyntheticNetworkConfig cfg;
  cfg.rows = side;
  cfg.cols = side;
  cfg.seed = seed;
  return graph::BuildSyntheticNetwork(cfg);
}

/// Forwards to `inner`, its reverse tree included (so Yen runs one reverse
/// search per query, as served), and counts its searches and the vertices
/// they settle.
class CountingEngine final : public ShortestPathEngine {
 public:
  explicit CountingEngine(ShortestPathEngine* inner) : inner_(inner) {}

  SearchResult FindPath(VertexId source, VertexId target,
                        const EdgeCostFn& cost, const BanSet* bans,
                        const CancelToken* cancel) override {
    ++searches_;
    SearchResult result = inner_->FindPath(source, target, cost, bans, cancel);
    settled_ += inner_->last_settled_count();
    return result;
  }
  const char* name() const override { return inner_->name(); }
  size_t last_settled_count() const override {
    return inner_->last_settled_count();
  }
  const std::vector<double>* DistancesTo(VertexId target,
                                         const CancelToken* cancel) override {
    return inner_->DistancesTo(target, cancel);
  }
  size_t searches() const { return searches_; }
  size_t settled() const { return settled_; }

 private:
  ShortestPathEngine* inner_;
  size_t searches_ = 0;
  size_t settled_ = 0;
};

/// Deterministic far-apart query pair for a network.
std::pair<VertexId, VertexId> PickQuery(const graph::RoadNetwork& net,
                                        uint64_t salt) {
  Rng rng(777 + salt);
  const auto s = static_cast<VertexId>(rng.NextBounded(net.num_vertices()));
  const auto t = static_cast<VertexId>(
      (s + net.num_vertices() / 2 + rng.NextBounded(net.num_vertices() / 4)) %
      net.num_vertices());
  return {s, t};
}

void BM_Dijkstra(benchmark::State& state) {
  const auto net = MakeNetwork(static_cast<int>(state.range(0)));
  const auto cost = EdgeCostFn::Length(net);
  Dijkstra engine(net);
  uint64_t salt = 0;
  for (auto _ : state) {
    const auto [s, t] = PickQuery(net, salt++ % 16);
    auto p = engine.ShortestPath(s, t, cost);
    benchmark::DoNotOptimize(p);
  }
  state.counters["settled"] =
      static_cast<double>(engine.last_settled_count());
}
BENCHMARK(BM_Dijkstra)->Arg(16)->Arg(32)->Arg(64);

void BM_YenTopK(benchmark::State& state) {
  const auto net = MakeNetwork(24);
  const auto cost = EdgeCostFn::Length(net);
  const int k = static_cast<int>(state.range(0));
  uint64_t salt = 0;
  for (auto _ : state) {
    const auto [s, t] = PickQuery(net, salt++ % 8);
    auto paths = TopKShortestPaths(net, s, t, cost, k);
    benchmark::DoNotOptimize(paths);
  }
}
BENCHMARK(BM_YenTopK)->Arg(4)->Arg(8)->Arg(16);

/// D-TkDI through a counting engine; `spur_searches` and `settled` are
/// the mean number of engine searches and of vertices they settle per
/// query (the one reverse search per query not included).
void RunDiversified(benchmark::State& state, const graph::RoadNetwork& net,
                    const EdgeCostFn& cost, const DiversifiedOptions& options,
                    ShortestPathEngine* engine) {
  CountingEngine counting(engine);
  uint64_t salt = 0;
  for (auto _ : state) {
    const auto [s, t] = PickQuery(net, salt++ % 8);
    auto paths =
        DiversifiedTopK(net, s, t, cost, options, nullptr, &counting);
    benchmark::DoNotOptimize(paths);
  }
  state.counters["spur_searches"] =
      benchmark::Counter(static_cast<double>(counting.searches()),
                         benchmark::Counter::kAvgIterations);
  state.counters["settled"] =
      benchmark::Counter(static_cast<double>(counting.settled()),
                         benchmark::Counter::kAvgIterations);
}

void BM_DiversifiedTopK(benchmark::State& state) {
  const auto net = MakeNetwork(24);
  const auto cost = EdgeCostFn::Length(net);
  DiversifiedOptions options;
  options.k = static_cast<int>(state.range(0));
  options.similarity_threshold = 0.8;
  options.max_enumerated = 300;
  DijkstraEngine engine(net);
  RunDiversified(state, net, cost, options, &engine);
}
BENCHMARK(BM_DiversifiedTopK)->Arg(4)->Arg(8)->Arg(16);

/// The served configuration: perfbench's 24x24 network, travel time,
/// k = 10, threshold 0.6, ALT with 8 landmarks.
void BM_DiversifiedTopKServed(benchmark::State& state) {
  const auto net = MakeNetwork(24, 42);
  const auto cost = EdgeCostFn::TravelTime(net);
  DiversifiedOptions options;
  options.k = 10;
  options.similarity_threshold = 0.6;
  AltEngine engine(net, cost,
                   std::make_shared<const PreprocessedGraph>(net, cost, 8));
  RunDiversified(state, net, cost, options, &engine);
}
BENCHMARK(BM_DiversifiedTopKServed);

void BM_NetworkConstruction(benchmark::State& state) {
  graph::SyntheticNetworkConfig cfg;
  cfg.rows = static_cast<int>(state.range(0));
  cfg.cols = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto net = graph::BuildSyntheticNetwork(cfg);
    benchmark::DoNotOptimize(net);
  }
}
BENCHMARK(BM_NetworkConstruction)->Arg(16)->Arg(48);

}  // namespace

BENCHMARK_MAIN();
