#include "routing/alt.h"

#include <algorithm>
#include <functional>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace pathrank::routing {
namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

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
      suffix_stamp_(network.num_vertices(), 0),
      suffix_clear_(network.num_vertices(), 0) {
  PR_CHECK(tables_ != nullptr);
  PR_CHECK(tables_->num_vertices() == network.num_vertices())
      << "preprocessed tables index a different network";
  PR_CHECK(tables_->CompatibleWith(cost_))
      << "query metric does not match the preprocessing metric";
}

const std::vector<double>& AltRouter::DistancesTo(VertexId target,
                                                  const CancelToken* cancel) {
  PR_CHECK(target < network_->num_vertices());
  if (target != tree_target_) {
    tree_ = ReverseTree(*network_, target, cost_, cancel);
    tree_target_ = tree_.dist.empty() ? graph::kInvalidVertex : target;
  }
  return tree_.dist;
}

bool AltRouter::SuffixClear(VertexId u, const BanSet& bans) {
  // Walk the tree path until the target, a banned step, or a vertex this
  // search already decided; then record the answer for every vertex
  // walked, each of whose suffixes contains the rest of the walk.
  walk_.clear();
  VertexId v = u;
  bool clear = true;
  while (v != tree_target_ && suffix_stamp_[v] != epoch_) {
    walk_.push_back(v);
    const EdgeId e = tree_.next_edge[v];
    const VertexId head = network_->edge(e).to;
    if (bans.IsEdgeBanned(e) || bans.IsVertexBanned(head)) {
      clear = false;
      break;
    }
    v = head;
  }
  if (clear && v != tree_target_) clear = suffix_clear_[v] != 0;
  for (VertexId w : walk_) {
    suffix_stamp_[w] = epoch_;
    suffix_clear_[w] = clear ? 1 : 0;
  }
  return clear;
}

Path AltRouter::Assemble(VertexId u, double g, VertexId target) {
  prefix_.clear();
  VertexId first = u;
  while (parent_edge_[first] != graph::kInvalidEdge) {
    const EdgeId e = parent_edge_[first];
    prefix_.push_back(e);
    first = network_->edge(e).from;
  }
  size_t suffix = 0;
  for (VertexId v = u; v != target; v = network_->edge(tree_.next_edge[v]).to) {
    ++suffix;
  }
  Path path;
  path.edges.reserve(prefix_.size() + suffix);
  path.edges.assign(prefix_.rbegin(), prefix_.rend());
  // The tree suffix, its costs added to g left to right: the order in
  // which Dijkstra accumulates the same path's cost, so the bits match.
  path.cost = g;
  for (VertexId v = u; v != target;) {
    const EdgeId e = tree_.next_edge[v];
    path.cost += cost_(e);
    path.edges.push_back(e);
    v = network_->edge(e).to;
  }
  path.vertices.reserve(path.edges.size() + 1);
  path.vertices.push_back(first);
  for (EdgeId e : path.edges) {
    path.vertices.push_back(network_->edge(e).to);
  }
  RecomputeTotals(*network_, &path);
  return path;
}

std::optional<Path> AltRouter::ShortestPath(VertexId source, VertexId target,
                                            const BanSet* bans,
                                            const CancelToken* cancel) {
  PR_CHECK(source < network_->num_vertices());
  PR_CHECK(target < network_->num_vertices());
  if (cancel != nullptr && cancel->Expired()) return std::nullopt;
  settled_count_ = 0;
  const std::vector<double>& h = DistancesTo(target, cancel);
  if (h.empty() || h[source] == kInf) return std::nullopt;
  ++epoch_;

  constexpr std::greater<QueueEntry> kLater;
  queue_.clear();
  dist_[source] = 0.0;
  parent_edge_[source] = graph::kInvalidEdge;
  stamp_[source] = epoch_;
  queue_.push_back({h[source], 0.0, source});

  size_t pops = 0;
  while (!queue_.empty()) {
    // Same amortised checkpoint cadence as Dijkstra::Run: free when no
    // token, and never influences expansion order.
    if (cancel != nullptr &&
        (++pops & (Dijkstra::kCancelCheckPops - 1)) == 0 &&
        cancel->Expired()) {
      return std::nullopt;
    }
    std::pop_heap(queue_.begin(), queue_.end(), kLater);
    const QueueEntry top = queue_.back();
    queue_.pop_back();
    const VertexId u = top.vertex;
    if (stamp_[u] != epoch_ || top.g > dist_[u]) continue;
    ++settled_count_;
    // Without bans every suffix is clear: the source, popped first,
    // answers with its own tree path.
    if (u == target || bans == nullptr || SuffixClear(u, *bans)) {
      return Assemble(u, top.g, target);
    }
    for (EdgeId e : network_->OutEdges(u)) {
      if (bans != nullptr && bans->IsEdgeBanned(e)) continue;
      const auto& rec = network_->edge(e);
      const VertexId v = rec.to;
      if (bans != nullptr && bans->IsVertexBanned(v)) continue;
      // Off the tree's reach, v cannot reach the target at all.
      if (h[v] == kInf) continue;
      const double ng = top.g + cost_(e);
      if (stamp_[v] != epoch_ || ng < dist_[v]) {
        stamp_[v] = epoch_;
        dist_[v] = ng;
        parent_edge_[v] = e;
        queue_.push_back({ng + h[v], ng, v});
        std::push_heap(queue_.begin(), queue_.end(), kLater);
      }
    }
  }
  return std::nullopt;
}

}  // namespace pathrank::routing
