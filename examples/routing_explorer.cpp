// Routing-substrate explorer: compares plain Dijkstra with ALT on the
// same queries (cost equality, vertices settled) and shows what the
// candidate generators produce — the "advanced routing" component of the
// paper's solution overview.
#include <cstdio>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "graph/network_builder.h"
#include "routing/alt.h"
#include "routing/cost_model.h"
#include "routing/dijkstra.h"
#include "routing/diversified.h"
#include "routing/path_similarity.h"
#include "routing/yen.h"

int main() {
  using namespace pathrank;
  using namespace pathrank::routing;

  graph::SyntheticNetworkConfig cfg;
  cfg.rows = 32;
  cfg.cols = 32;
  cfg.seed = 21;
  const auto network = graph::BuildSyntheticNetwork(cfg);
  std::printf("network: %s\n\n", network.Summary().c_str());

  const auto cost = EdgeCostFn::Length(network);
  Dijkstra dijkstra(network);
  AltRouter alt(network, cost);

  std::printf("point-to-point engines (5 random far queries):\n");
  std::printf("%-8s %12s %12s\n", "query", "dijkstra", "alt");
  Rng rng(22);
  for (int i = 0; i < 5; ++i) {
    const auto s =
        static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
    const auto t =
        static_cast<VertexId>(rng.NextBounded(network.num_vertices()));
    if (s == t) continue;
    const auto pd = dijkstra.ShortestPath(s, t, cost);
    const size_t settled_d = dijkstra.last_settled_count();
    const auto pa = alt.ShortestPath(s, t);
    const size_t settled_a = alt.last_settled_count();
    if (!pd.has_value()) continue;
    std::printf("#%-7d %7.0fm/%4zu %7.0fm/%4zu  (settled)\n", i, pd->cost,
                settled_d, pa->cost, settled_a);
  }
  std::printf(
      "(ALT's count is its A* on the target's reverse tree, without the\n"
      " reverse search that builds the tree once per target.)\n");

  const VertexId s = 40;
  const VertexId t = static_cast<VertexId>(network.num_vertices() - 40);
  std::printf("\ntop-5 shortest paths %u -> %u (Yen):\n", s, t);
  const auto topk = TopKShortestPaths(network, s, t, cost, 5);
  for (size_t i = 0; i < topk.size(); ++i) {
    std::printf("  #%zu cost=%.0fm vertices=%zu sim_to_best=%.3f\n", i + 1,
                topk[i].cost, topk[i].num_vertices(),
                WeightedJaccard(network, topk[i].edges, topk[0].edges));
  }

  std::printf("\ndiversified top-5 (threshold 0.6):\n");
  DiversifiedOptions opt;
  opt.k = 5;
  opt.similarity_threshold = 0.6;
  const auto div = DiversifiedTopK(network, s, t, cost, opt);
  for (size_t i = 0; i < div.size(); ++i) {
    std::printf("  #%zu cost=%.0fm vertices=%zu sim_to_best=%.3f\n", i + 1,
                div[i].cost, div[i].num_vertices(),
                WeightedJaccard(network, div[i].edges, div[0].edges));
  }
  std::printf(
      "\nNote how the diversified set trades a little extra length for\n"
      "substantially different routes - the paper's training candidates.\n");
  return 0;
}
