// Immutable spatial road network stored in CSR (compressed sparse row) form.
//
// The network is a directed multigraph: every physical road segment is one
// directed edge carrying length, free-flow travel time and a functional road
// category. Bidirectional roads are modelled as two directed edges.
//
// Construction goes through RoadNetworkBuilder; once built, a RoadNetwork is
// immutable and safe to share read-only across threads.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "graph/types.h"

namespace pathrank::graph {

/// Attributes of one directed edge.
struct EdgeRecord {
  VertexId from = kInvalidVertex;
  VertexId to = kInvalidVertex;
  double length_m = 0.0;
  double travel_time_s = 0.0;
  RoadCategory category = RoadCategory::kResidential;
};

/// Incremental builder; collects vertices and edges then produces the CSR
/// representation in one pass.
class RoadNetworkBuilder {
 public:
  /// Adds a vertex and returns its id (ids are dense, starting at 0).
  VertexId AddVertex(Coordinate coordinate);

  /// Adds one directed edge. Travel time defaults to
  /// length / DefaultSpeedKmh(category) when `travel_time_s` <= 0.
  EdgeId AddEdge(VertexId from, VertexId to, double length_m,
                 RoadCategory category, double travel_time_s = -1.0);

  /// Adds a pair of opposing directed edges; returns the id of the first.
  EdgeId AddBidirectionalEdge(VertexId a, VertexId b, double length_m,
                              RoadCategory category,
                              double travel_time_s = -1.0);

  size_t num_vertices() const { return coordinates_.size(); }
  size_t num_edges() const { return edges_.size(); }

  /// Finalises and returns the network. The builder is left empty.
  class RoadNetwork Build();

  /// Builds a network directly from explicit per-edge records: edge ids
  /// are positional in `edges`, so a caller rebuilding an existing
  /// network (the live-traffic copy-on-write path, graph_snapshot.h)
  /// keeps every id stable. Edges flagged nonzero in `closed` keep their
  /// record — edge(e), PathLengthMeters etc. still work — but appear in
  /// no adjacency row: OutEdges/InEdges never yield them and FindEdge
  /// cannot return them, which is exactly "closed road" to the routing
  /// layer. `closed` may be empty (nothing closed) or one entry per edge.
  static class RoadNetwork BuildFrom(std::vector<Coordinate> coordinates,
                                     std::vector<EdgeRecord> edges,
                                     const std::vector<uint8_t>& closed = {});

 private:
  std::vector<Coordinate> coordinates_;
  std::vector<EdgeRecord> edges_;
};

/// Immutable CSR road network.
class RoadNetwork {
 public:
  RoadNetwork() = default;

  size_t num_vertices() const { return coordinates_.size(); }
  size_t num_edges() const { return edge_records_.size(); }

  /// Geographic position of vertex `v`.
  const Coordinate& coordinate(VertexId v) const { return coordinates_[v]; }

  /// Attributes of edge `e`.
  const EdgeRecord& edge(EdgeId e) const { return edge_records_[e]; }

  /// Ids of edges leaving `v`, sorted by target vertex id.
  std::span<const EdgeId> OutEdges(VertexId v) const {
    return {out_edge_ids_.data() + out_offsets_[v],
            out_offsets_[v + 1] - out_offsets_[v]};
  }

  /// Ids of edges entering `v`.
  std::span<const EdgeId> InEdges(VertexId v) const {
    return {in_edge_ids_.data() + in_offsets_[v],
            in_offsets_[v + 1] - in_offsets_[v]};
  }

  /// True when some vertex has two open edges to the same head: another
  /// edge sequence can then visit the same vertices at a different cost.
  /// Closed edges are in no adjacency row, so they never count.
  bool has_parallel_edges() const { return has_parallel_edges_; }

  /// Out-degree of `v`.
  size_t OutDegree(VertexId v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }

  /// Finds a directed edge from `from` to `to`; returns kInvalidEdge when
  /// absent. If parallel edges exist, the shortest one is returned.
  EdgeId FindEdge(VertexId from, VertexId to) const;

  /// Sum of `length_m` over a sequence of edge ids.
  double PathLengthMeters(std::span<const EdgeId> edges) const;

  /// Sum of `travel_time_s` over a sequence of edge ids.
  double PathTravelTimeSeconds(std::span<const EdgeId> edges) const;

  /// Human-readable one-line summary ("|V|=..., |E|=...").
  std::string Summary() const;

 private:
  friend class RoadNetworkBuilder;

  std::vector<Coordinate> coordinates_;
  std::vector<EdgeRecord> edge_records_;
  // CSR over out-edges and in-edges: offsets have num_vertices()+1 entries.
  std::vector<uint32_t> out_offsets_;
  std::vector<EdgeId> out_edge_ids_;
  std::vector<uint32_t> in_offsets_;
  std::vector<EdgeId> in_edge_ids_;
  bool has_parallel_edges_ = false;
};

}  // namespace pathrank::graph
