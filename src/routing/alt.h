// ALT: A* with Landmarks and the Triangle inequality (Goldberg & Harrelson
// 2005). Preprocessing (see routing/preprocessed_graph.h) selects a small
// set of landmarks with farthest-point sampling and stores exact distances
// to and from every vertex, from which
//
//   h(v) = max over landmarks L of
//          max( d(L, t) - d(L, v),  d(v, L) - d(t, L) )
//
// is an admissible and consistent bound for the metric used at
// preprocessing time, and works for custom metrics such as the simulated
// drivers' personalised costs.
//
// The router's queries use the target itself as an exact landmark: h(v) =
// d(v -> t) in the unbanned graph, read from the target's reverse
// shortest-path tree, which the router builds on the first query toward a
// target and keeps until a query names another one. That h dominates
// every landmark term, and bans only remove edges, so it stays admissible
// and consistent. The search also stops early (Feng, Networks 2014): when
// it pops a vertex u whose tree path to the target uses no banned edge and
// arrives at no banned vertex, the path is the A* prefix to u plus that
// tree suffix. u has the smallest f = g + h in the queue and g(u) + h(u)
// is achieved, so the path is optimal; it is simple, because a suffix that
// revisited a prefix vertex x would make x's own suffix clear, and the
// search would have stopped at x. Zero-cost edges change none of this. An
// unbanned query stops at its source: the answer is the source's tree
// path. Every query toward a new target therefore pays for one one-to-all
// reverse search; a Yen enumeration sends all of its searches to one
// target, and shares the tree as its own potential (DistancesTo).
//
// The landmark tables live in a shareable PreprocessedGraph, so many
// AltRouter instances (one per thread/enumeration — the router itself is
// query scratch and not thread-safe) can run over one preprocessing
// artifact, and the serving layer can rebuild the artifact per graph
// epoch without touching the routers. The router's queries do not read
// the distance tables; it keeps them for the metric check and the
// diagnostics (landmarks(), tables()).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/deadline.h"
#include "routing/ban_set.h"
#include "routing/cost_model.h"
#include "routing/dijkstra.h"
#include "routing/path.h"
#include "routing/preprocessed_graph.h"

namespace pathrank::routing {

/// ALT query engine for one (network, metric) pair. Holds per-query
/// scratch; the (immutable, shareable) landmark tables live in the
/// PreprocessedGraph.
class AltRouter {
 public:
  /// Builds private tables: preprocesses `num_landmarks` landmarks under
  /// `cost`. O(L * E log V).
  AltRouter(const RoadNetwork& network, const EdgeCostFn& cost,
            int num_landmarks = 8);

  /// Shares existing tables (the per-epoch artifact path). `cost` must be
  /// the metric `tables` was preprocessed under — checked for the length
  /// and travel-time kinds; custom metrics are the caller's contract.
  AltRouter(const RoadNetwork& network, const EdgeCostFn& cost,
            std::shared_ptr<const PreprocessedGraph> tables);

  /// Exact shortest path under the preprocessing metric, on the target's
  /// tree (see above). `bans` excludes banned edges and banned arrival
  /// vertices (Dijkstra semantics). `cancel` is polled on the same
  /// amortised cadence as Dijkstra, in the tree build too; an expired
  /// token yields std::nullopt regardless of reachability.
  std::optional<Path> ShortestPath(VertexId source, VertexId target,
                                   const BanSet* bans = nullptr,
                                   const CancelToken* cancel = nullptr);

  /// d(v -> target) for every v in the unbanned graph, +inf when v cannot
  /// reach it: the target's tree, built here when the target changed.
  /// The vector stays valid, and unchanged, until a call names another
  /// target; it is empty when `cancel` expired during the build.
  const std::vector<double>& DistancesTo(VertexId target,
                                         const CancelToken* cancel);

  /// Vertices settled by the last query's A* (the tree build not
  /// included).
  size_t last_settled_count() const { return settled_count_; }

  /// The selected landmark vertices (diagnostics/tests).
  const std::vector<VertexId>& landmarks() const {
    return tables_->landmarks();
  }

  /// The shared preprocessing artifact.
  const std::shared_ptr<const PreprocessedGraph>& tables() const {
    return tables_;
  }

 private:
  struct QueueEntry {
    double f;
    double g;
    VertexId vertex;
    bool operator>(const QueueEntry& o) const { return f > o.f; }
  };

  /// True when u's tree path to the target uses no banned edge and
  /// arrives at no banned vertex. Memoised for the current search.
  bool SuffixClear(VertexId u, const BanSet& bans);
  /// The A* prefix to `u` (cost `g`), then u's tree suffix to `target`.
  Path Assemble(VertexId u, double g, VertexId target);

  const RoadNetwork* network_;
  EdgeCostFn cost_;
  std::shared_ptr<const PreprocessedGraph> tables_;

  std::vector<double> dist_;
  std::vector<EdgeId> parent_edge_;
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
  size_t settled_count_ = 0;
  // Reused across queries: the binary heap (std::push_heap/pop_heap with
  // std::greater, std::priority_queue's own order) and the reversed
  // prefix of the path being assembled.
  std::vector<QueueEntry> queue_;
  std::vector<EdgeId> prefix_;

  // The reverse tree of tree_target_ (kInvalidVertex: none, or its build
  // was cancelled), and the per-search suffix memo: suffix_clear_[v] is
  // valid when suffix_stamp_[v] == epoch_.
  TargetTree tree_;
  VertexId tree_target_ = graph::kInvalidVertex;
  std::vector<uint32_t> suffix_stamp_;
  std::vector<uint8_t> suffix_clear_;
  std::vector<VertexId> walk_;
};

}  // namespace pathrank::routing
