#include "routing/alt.h"

#include <queue>
#include <utility>

#include "common/logging.h"
#include "routing/dijkstra.h"

namespace pathrank::routing {

AltRouter::AltRouter(const RoadNetwork& network, const EdgeCostFn& cost,
                     int num_landmarks)
    : AltRouter(network, cost,
                std::make_shared<const PreprocessedGraph>(network, cost,
                                                          num_landmarks)) {}

AltRouter::AltRouter(const RoadNetwork& network, const EdgeCostFn& cost,
                     std::shared_ptr<const PreprocessedGraph> tables)
    : network_(&network),
      cost_(cost),
      tables_(std::move(tables)),
      dist_(network.num_vertices()),
      parent_edge_(network.num_vertices(), graph::kInvalidEdge),
      stamp_(network.num_vertices(), 0),
      bound_(network.num_vertices()),
      bound_stamp_(network.num_vertices(), 0) {
  PR_CHECK(tables_ != nullptr);
  PR_CHECK(tables_->num_vertices() == network.num_vertices())
      << "preprocessed tables index a different network";
  PR_CHECK(tables_->CompatibleWith(cost_))
      << "query metric does not match the preprocessing metric";
}

double AltRouter::Bound(VertexId v) {
  if (bound_stamp_[v] != bound_epoch_) {
    bound_stamp_[v] = bound_epoch_;
    bound_[v] = tables_->LowerBound(v, bound_target_);
  }
  return bound_[v];
}

std::optional<Path> AltRouter::ShortestPath(VertexId source, VertexId target,
                                            const BanSet* bans,
                                            const CancelToken* cancel) {
  PR_CHECK(source < network_->num_vertices());
  PR_CHECK(target < network_->num_vertices());
  if (cancel != nullptr && cancel->Expired()) return std::nullopt;
  ++epoch_;
  settled_count_ = 0;
  if (target != bound_target_) {
    bound_target_ = target;
    ++bound_epoch_;
  }

  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;
  dist_[source] = 0.0;
  parent_edge_[source] = graph::kInvalidEdge;
  stamp_[source] = epoch_;
  queue.push({Bound(source), 0.0, source});

  size_t pops = 0;
  while (!queue.empty()) {
    // Same amortised checkpoint cadence as Dijkstra::Run: free when no
    // token, and never influences expansion order.
    if (cancel != nullptr &&
        (++pops & (Dijkstra::kCancelCheckPops - 1)) == 0 &&
        cancel->Expired()) {
      return std::nullopt;
    }
    const QueueEntry top = queue.top();
    queue.pop();
    const VertexId u = top.vertex;
    if (stamp_[u] != epoch_ || top.g > dist_[u]) continue;
    ++settled_count_;
    if (u == target) {
      Path path;
      path.cost = top.g;
      std::vector<EdgeId> rev;
      VertexId cur = target;
      while (parent_edge_[cur] != graph::kInvalidEdge) {
        const EdgeId e = parent_edge_[cur];
        rev.push_back(e);
        cur = network_->edge(e).from;
      }
      path.edges.assign(rev.rbegin(), rev.rend());
      path.vertices.reserve(path.edges.size() + 1);
      path.vertices.push_back(cur);
      for (EdgeId e : path.edges) {
        path.vertices.push_back(network_->edge(e).to);
      }
      RecomputeTotals(*network_, &path);
      return path;
    }
    for (EdgeId e : network_->OutEdges(u)) {
      if (bans != nullptr && bans->IsEdgeBanned(e)) continue;
      const auto& rec = network_->edge(e);
      const VertexId v = rec.to;
      if (bans != nullptr && bans->IsVertexBanned(v)) continue;
      const double ng = top.g + cost_(e);
      if (stamp_[v] != epoch_ || ng < dist_[v]) {
        stamp_[v] = epoch_;
        dist_[v] = ng;
        parent_edge_[v] = e;
        queue.push({ng + Bound(v), ng, v});
      }
    }
  }
  return std::nullopt;
}

}  // namespace pathrank::routing
