#include "embedding/random_walk.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"

namespace pathrank::embedding {

RandomWalker::RandomWalker(const graph::RoadNetwork& network,
                           const RandomWalkConfig& config)
    : network_(&network), config_(config) {
  PR_CHECK(config.p > 0.0 && config.q > 0.0);
  PR_CHECK(config.walk_length >= 2);
  first_order_.reserve(network.num_vertices());
  std::vector<double> weights;
  for (graph::VertexId v = 0; v < network.num_vertices(); ++v) {
    const auto edges = network.OutEdges(v);
    weights.resize(edges.size());
    for (size_t i = 0; i < edges.size(); ++i) {
      // Weighted node2vec: transition probability proportional to edge
      // speed, so walks flow along the road hierarchy and the embedding
      // geometry encodes it (original node2vec supports edge weights).
      const auto& rec = network.edge(edges[i]);
      weights[i] = rec.travel_time_s > 0.0
                       ? rec.length_m / rec.travel_time_s
                       : 1.0;
    }
    if (edges.empty()) {
      first_order_.emplace_back();
    } else {
      first_order_.emplace_back(weights);
    }
  }
  envelope_ = std::max({1.0, 1.0 / config.p, 1.0 / config.q});
}

graph::VertexId RandomWalker::SampleNeighbor(graph::VertexId prev,
                                             graph::VertexId cur,
                                             pathrank::Rng& rng) const {
  const auto edges = network_->OutEdges(cur);
  if (edges.empty()) return graph::kInvalidVertex;
  const AliasTable& table = first_order_[cur];
  // Rejection sampling of the second-order kernel.
  for (int attempt = 0; attempt < 64; ++attempt) {
    const size_t pick = table.Sample(rng);
    const graph::VertexId x = network_->edge(edges[pick]).to;
    double bias;
    if (x == prev) {
      bias = 1.0 / config_.p;
    } else if (network_->FindEdge(prev, x) != graph::kInvalidEdge) {
      bias = 1.0;
    } else {
      bias = 1.0 / config_.q;
    }
    if (rng.NextDouble() * envelope_ <= bias) return x;
  }
  // Degenerate acceptance (extreme p/q): fall back to first-order.
  const size_t pick = table.Sample(rng);
  return network_->edge(edges[pick]).to;
}

std::vector<graph::VertexId> RandomWalker::Walk(graph::VertexId start,
                                                pathrank::Rng& rng) const {
  std::vector<graph::VertexId> walk;
  walk.reserve(static_cast<size_t>(config_.walk_length));
  walk.push_back(start);

  // First hop is first-order.
  const auto first_edges = network_->OutEdges(start);
  if (first_edges.empty()) return walk;
  const size_t pick = first_order_[start].Sample(rng);
  walk.push_back(network_->edge(first_edges[pick]).to);

  while (static_cast<int>(walk.size()) < config_.walk_length) {
    const graph::VertexId next =
        SampleNeighbor(walk[walk.size() - 2], walk.back(), rng);
    if (next == graph::kInvalidVertex) break;
    walk.push_back(next);
  }
  return walk;
}

std::vector<std::vector<graph::VertexId>> RandomWalker::GenerateCorpus(
    pathrank::Rng& rng) const {
  // Plan every start vertex (the shuffles consume the caller's stream),
  // then walk them in order on one forked stream, so the corpus depends
  // on the seed alone, never on the pool size. Walking on a fork keeps a
  // seed's corpus, and every checkpoint trained from it, bitwise stable.
  std::vector<graph::VertexId> order(network_->num_vertices());
  std::iota(order.begin(), order.end(), graph::VertexId{0});
  std::vector<graph::VertexId> starts;
  starts.reserve(order.size() *
                 static_cast<size_t>(config_.walks_per_vertex));
  for (int rep = 0; rep < config_.walks_per_vertex; ++rep) {
    rng.Shuffle(order);
    starts.insert(starts.end(), order.begin(), order.end());
  }

  pathrank::Rng walk_rng = rng.Fork();
  std::vector<std::vector<graph::VertexId>> corpus;
  corpus.reserve(starts.size());
  for (graph::VertexId start : starts) {
    corpus.push_back(Walk(start, walk_rng));
  }
  return corpus;
}

}  // namespace pathrank::embedding
