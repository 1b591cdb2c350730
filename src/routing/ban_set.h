// Temporarily banned vertices/edges for spur-path computations (Yen).
// Uses epoch stamping so Clear() is O(1) across the many thousands of
// Dijkstra calls a single Yen enumeration performs.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/types.h"

namespace pathrank::routing {

/// O(1)-clear set of banned vertices and edges.
class BanSet {
 public:
  BanSet(size_t num_vertices, size_t num_edges)
      : vertex_epoch_(num_vertices, 0), edge_epoch_(num_edges, 0) {}

  void BanVertex(graph::VertexId v) { vertex_epoch_[v] = vertex_current_; }
  void BanEdge(graph::EdgeId e) { edge_epoch_[e] = edge_current_; }

  bool IsVertexBanned(graph::VertexId v) const {
    return vertex_epoch_[v] == vertex_current_;
  }
  bool IsEdgeBanned(graph::EdgeId e) const {
    return edge_epoch_[e] == edge_current_;
  }

  /// Un-bans everything in O(1).
  void Clear() {
    ++vertex_current_;
    ++edge_current_;
  }

  /// Un-bans every edge in O(1) and keeps the vertex bans: Yen's spur
  /// loop grows its banned root by one vertex per position but bans a
  /// fresh edge set at each.
  void ClearEdges() { ++edge_current_; }

 private:
  uint32_t vertex_current_ = 1;
  uint32_t edge_current_ = 1;
  std::vector<uint32_t> vertex_epoch_;
  std::vector<uint32_t> edge_epoch_;
};

}  // namespace pathrank::routing
