// Dijkstra shortest paths with target early-exit, reusable state (epoch
// trick), and optional vertex/edge bans (required by Yen's algorithm).
#pragma once

#include <optional>
#include <vector>

#include "common/deadline.h"
#include "routing/ban_set.h"
#include "routing/cost_model.h"
#include "routing/path.h"

namespace pathrank::routing {

/// Reusable single-source shortest-path engine. Not thread-safe; create one
/// instance per thread.
class Dijkstra {
 public:
  explicit Dijkstra(const RoadNetwork& network);

  /// Point-to-point query; returns std::nullopt when `target` is
  /// unreachable. `bans` (optional) excludes vertices/edges from the search;
  /// the source itself must not be banned. `cancel` (optional) is polled
  /// every kCancelCheckPops heap pops; an expired token aborts the search
  /// with std::nullopt — indistinguishable from "unreachable" here, so
  /// callers that must tell the two apart re-check cancel->Expired().
  std::optional<Path> ShortestPath(VertexId source, VertexId target,
                                   const EdgeCostFn& cost,
                                   const BanSet* bans = nullptr,
                                   const CancelToken* cancel = nullptr);

  /// Cancellation-poll cadence, in heap pops. Small enough that even the
  /// tiny test graphs hit a checkpoint, large enough that the per-pop
  /// cost with a live token is one predictable branch plus a rare clock
  /// read.
  static constexpr size_t kCancelCheckPops = 64;

  /// Full one-to-all relaxation from `source`. After the call,
  /// DistanceTo/Reached answer queries for any target.
  void ComputeAllFrom(VertexId source, const EdgeCostFn& cost);

  /// Distance from the last ComputeAllFrom source; +inf when unreachable.
  double DistanceTo(VertexId v) const;

  /// True when v was reached by the last search.
  bool Reached(VertexId v) const;

  /// Number of vertices settled by the last search (for benchmarks).
  size_t last_settled_count() const { return settled_count_; }

 private:
  struct QueueEntry {
    double dist;
    VertexId vertex;
    bool operator>(const QueueEntry& o) const { return dist > o.dist; }
  };

  void Reset();
  std::optional<Path> Run(VertexId source, VertexId target,
                          const EdgeCostFn& cost, const BanSet* bans,
                          const CancelToken* cancel);
  Path Reconstruct(VertexId target, double dist) const;

  const RoadNetwork* network_;
  const EdgeCostFn* cost_ = nullptr;
  std::vector<double> dist_;
  std::vector<EdgeId> parent_edge_;
  std::vector<uint32_t> stamp_;  // epoch per vertex
  uint32_t epoch_ = 0;
  size_t settled_count_ = 0;
  VertexId last_source_ = graph::kInvalidVertex;
};

/// The shortest-path tree toward one target: `dist[v]` is d(v -> target),
/// +inf when v cannot reach it, and `next_edge[v]` is the first edge of
/// v's tree path to it (kInvalidEdge at the target and at vertices that
/// cannot reach it). Following `next_edge` from any reaching vertex walks
/// a shortest path to the target.
struct TargetTree {
  std::vector<double> dist;
  std::vector<EdgeId> next_edge;
};

/// One-to-all Dijkstra over reversed edges from `target`. `cancel`
/// (optional) is polled every Dijkstra::kCancelCheckPops pops; an expired
/// token returns an empty tree.
TargetTree ReverseTree(const RoadNetwork& network, VertexId target,
                       const EdgeCostFn& cost,
                       const CancelToken* cancel = nullptr);

}  // namespace pathrank::routing
