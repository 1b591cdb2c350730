#include "routing/dijkstra.h"

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>

#include "common/logging.h"

namespace pathrank::routing {
namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

Dijkstra::Dijkstra(const RoadNetwork& network)
    : network_(&network),
      dist_(network.num_vertices(), kInf),
      parent_edge_(network.num_vertices(), graph::kInvalidEdge),
      stamp_(network.num_vertices(), 0) {}

void Dijkstra::Reset() {
  ++epoch_;
  settled_count_ = 0;
}

std::optional<Path> Dijkstra::ShortestPath(VertexId source, VertexId target,
                                           const EdgeCostFn& cost,
                                           const BanSet* bans,
                                           const CancelToken* cancel) {
  PR_CHECK(source < network_->num_vertices());
  PR_CHECK(target < network_->num_vertices());
  return Run(source, target, cost, bans, cancel);
}

void Dijkstra::ComputeAllFrom(VertexId source, const EdgeCostFn& cost) {
  PR_CHECK(source < network_->num_vertices());
  Run(source, graph::kInvalidVertex, cost, nullptr, nullptr);
}

std::optional<Path> Dijkstra::Run(VertexId source, VertexId target,
                                  const EdgeCostFn& cost,
                                  const BanSet* bans,
                                  const CancelToken* cancel) {
  // Entry checkpoint: an already-expired token (deadline spent before the
  // search even starts) must not buy a full search.
  if (cancel != nullptr && cancel->Expired()) return std::nullopt;
  Reset();
  cost_ = &cost;
  last_source_ = source;

  std::priority_queue<QueueEntry, std::vector<QueueEntry>,
                      std::greater<QueueEntry>>
      queue;
  dist_[source] = 0.0;
  parent_edge_[source] = graph::kInvalidEdge;
  stamp_[source] = epoch_;
  queue.push({0.0, source});

  // Settled marker: we reuse stamp_ for "touched"; settled is implied by
  // popping an entry whose dist matches dist_ (lazy deletion).
  size_t pops = 0;
  while (!queue.empty()) {
    // Cooperative cancellation, amortised to every kCancelCheckPops pops.
    // With cancel == nullptr (every pre-deadline call site) this is one
    // never-taken branch: no arithmetic the result depends on, so the
    // deadline-free search stays bitwise identical.
    if (cancel != nullptr && (++pops & (kCancelCheckPops - 1)) == 0 &&
        cancel->Expired()) {
      return std::nullopt;
    }
    const QueueEntry top = queue.top();
    queue.pop();
    const VertexId u = top.vertex;
    if (stamp_[u] != epoch_ || top.dist > dist_[u]) continue;  // stale
    ++settled_count_;
    if (u == target) {
      return Reconstruct(target, top.dist);
    }
    for (EdgeId e : network_->OutEdges(u)) {
      if (bans != nullptr && bans->IsEdgeBanned(e)) continue;
      const auto& rec = network_->edge(e);
      const VertexId v = rec.to;
      if (bans != nullptr && bans->IsVertexBanned(v)) continue;
      const double w = cost(e);
      const double nd = top.dist + w;
      if (stamp_[v] != epoch_ || nd < dist_[v]) {
        stamp_[v] = epoch_;
        dist_[v] = nd;
        parent_edge_[v] = e;
        queue.push({nd, v});
      }
    }
  }
  if (target == graph::kInvalidVertex) return std::nullopt;  // one-to-all
  return std::nullopt;  // unreachable
}

double Dijkstra::DistanceTo(VertexId v) const {
  return stamp_[v] == epoch_ ? dist_[v] : kInf;
}

bool Dijkstra::Reached(VertexId v) const { return stamp_[v] == epoch_; }

Path Dijkstra::Reconstruct(VertexId target, double dist) const {
  Path path;
  path.cost = dist;
  // Walk parents backwards.
  std::vector<EdgeId> rev_edges;
  VertexId cur = target;
  while (parent_edge_[cur] != graph::kInvalidEdge) {
    const EdgeId e = parent_edge_[cur];
    rev_edges.push_back(e);
    cur = network_->edge(e).from;
  }
  path.edges.assign(rev_edges.rbegin(), rev_edges.rend());
  path.vertices.reserve(path.edges.size() + 1);
  path.vertices.push_back(cur);
  for (EdgeId e : path.edges) path.vertices.push_back(network_->edge(e).to);
  RecomputeTotals(*network_, &path);
  return path;
}

TargetTree ReverseTree(const RoadNetwork& network, VertexId target,
                       const EdgeCostFn& cost, const CancelToken* cancel) {
  PR_CHECK(target < network.num_vertices());
  if (cancel != nullptr && cancel->Expired()) return {};
  TargetTree tree;
  tree.dist.assign(network.num_vertices(), kInf);
  tree.next_edge.assign(network.num_vertices(), graph::kInvalidEdge);
  tree.dist[target] = 0.0;
  using Entry = std::pair<double, VertexId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> queue;
  queue.push({0.0, target});
  size_t pops = 0;
  while (!queue.empty()) {
    if (cancel != nullptr &&
        (++pops & (Dijkstra::kCancelCheckPops - 1)) == 0 &&
        cancel->Expired()) {
      return {};
    }
    const auto [d, u] = queue.top();
    queue.pop();
    if (d > tree.dist[u]) continue;
    for (EdgeId e : network.InEdges(u)) {
      const VertexId from = network.edge(e).from;
      const double nd = d + cost(e);
      if (nd < tree.dist[from]) {
        tree.dist[from] = nd;
        tree.next_edge[from] = e;
        queue.push({nd, from});
      }
    }
  }
  return tree;
}

}  // namespace pathrank::routing
