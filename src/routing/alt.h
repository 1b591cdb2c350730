// ALT: A* with Landmarks and the Triangle inequality (Goldberg & Harrelson
// 2005). Preprocessing (see routing/preprocessed_graph.h) selects a small
// set of landmarks with farthest-point sampling and stores exact distances
// to and from every vertex; queries run A* with the lower bound
//
//   h(v) = max over landmarks L of
//          max( d(L, t) - d(L, v),  d(v, L) - d(t, L) )
//
// which is admissible and consistent for the metric used at preprocessing
// time. On hierarchical road networks ALT settles far fewer vertices than
// plain Dijkstra and, unlike a geometric A* heuristic, works for custom
// metrics such as the simulated drivers' personalised costs.
//
// The landmark tables live in a shareable PreprocessedGraph, so many
// AltRouter instances (one per thread/enumeration — the router itself is
// query scratch and not thread-safe) can run over one preprocessing
// artifact, and the serving layer can rebuild the artifact per graph
// epoch without touching the routers.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/deadline.h"
#include "routing/ban_set.h"
#include "routing/cost_model.h"
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

  /// Exact shortest path under the preprocessing metric. `bans` excludes
  /// banned edges and banned arrival vertices (Dijkstra semantics; the
  /// landmark bounds stay admissible because bans only remove edges).
  /// `cancel` is polled on the same amortised cadence as Dijkstra; an
  /// expired token yields std::nullopt regardless of reachability.
  std::optional<Path> ShortestPath(VertexId source, VertexId target,
                                   const BanSet* bans = nullptr,
                                   const CancelToken* cancel = nullptr);

  /// Vertices settled by the last query.
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

  /// tables_->LowerBound(v, bound_target_) through the memo below.
  double Bound(VertexId v);

  const RoadNetwork* network_;
  EdgeCostFn cost_;
  std::shared_ptr<const PreprocessedGraph> tables_;

  std::vector<double> dist_;
  std::vector<EdgeId> parent_edge_;
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
  size_t settled_count_ = 0;

  // Lower-bound memo for the current target: bound_[v] is valid when
  // bound_stamp_[v] == bound_epoch_. A Yen enumeration sends all of its
  // spur searches to one target, so each vertex's landmark bound (two
  // terms per landmark) is computed once per enumeration instead of once
  // per relaxation.
  // The values are the table's own, so the search order is unchanged.
  std::vector<double> bound_;
  std::vector<uint32_t> bound_stamp_;
  uint32_t bound_epoch_ = 0;
  VertexId bound_target_ = graph::kInvalidVertex;
};

}  // namespace pathrank::routing
