#include "graph/road_network.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/string_util.h"

namespace pathrank::graph {

VertexId RoadNetworkBuilder::AddVertex(Coordinate coordinate) {
  coordinates_.push_back(coordinate);
  return static_cast<VertexId>(coordinates_.size() - 1);
}

EdgeId RoadNetworkBuilder::AddEdge(VertexId from, VertexId to,
                                   double length_m, RoadCategory category,
                                   double travel_time_s) {
  PR_CHECK(from < coordinates_.size()) << "edge source out of range";
  PR_CHECK(to < coordinates_.size()) << "edge target out of range";
  PR_CHECK(length_m > 0.0) << "edge length must be positive";
  EdgeRecord rec;
  rec.from = from;
  rec.to = to;
  rec.length_m = length_m;
  rec.category = category;
  rec.travel_time_s = travel_time_s > 0.0
                          ? travel_time_s
                          : length_m / (DefaultSpeedKmh(category) / 3.6);
  edges_.push_back(rec);
  return static_cast<EdgeId>(edges_.size() - 1);
}

EdgeId RoadNetworkBuilder::AddBidirectionalEdge(VertexId a, VertexId b,
                                                double length_m,
                                                RoadCategory category,
                                                double travel_time_s) {
  const EdgeId first = AddEdge(a, b, length_m, category, travel_time_s);
  AddEdge(b, a, length_m, category, travel_time_s);
  return first;
}

RoadNetwork RoadNetworkBuilder::Build() {
  RoadNetwork net =
      BuildFrom(std::move(coordinates_), std::move(edges_));
  coordinates_.clear();
  edges_.clear();
  return net;
}

RoadNetwork RoadNetworkBuilder::BuildFrom(
    std::vector<Coordinate> coordinates, std::vector<EdgeRecord> edges,
    const std::vector<uint8_t>& closed) {
  PR_CHECK(closed.empty() || closed.size() == edges.size())
      << "closed mask must be empty or cover every edge";
  RoadNetwork net;
  net.coordinates_ = std::move(coordinates);
  net.edge_records_ = std::move(edges);

  const size_t n = net.coordinates_.size();
  const size_t m = net.edge_records_.size();
  const auto is_open = [&closed](EdgeId e) {
    return closed.empty() || closed[e] == 0;
  };

  // Counting sort of edge ids into CSR rows, out- and in-adjacency.
  // Closed edges keep their record (stable ids) but enter no row, so the
  // adjacency arrays hold only the open edges.
  net.out_offsets_.assign(n + 1, 0);
  net.in_offsets_.assign(n + 1, 0);
  size_t open = 0;
  for (EdgeId e = 0; e < m; ++e) {
    if (!is_open(e)) continue;
    const EdgeRecord& rec = net.edge_records_[e];
    ++net.out_offsets_[rec.from + 1];
    ++net.in_offsets_[rec.to + 1];
    ++open;
  }
  std::partial_sum(net.out_offsets_.begin(), net.out_offsets_.end(),
                   net.out_offsets_.begin());
  std::partial_sum(net.in_offsets_.begin(), net.in_offsets_.end(),
                   net.in_offsets_.begin());

  net.out_edge_ids_.resize(open);
  net.in_edge_ids_.resize(open);
  std::vector<uint32_t> out_cursor(net.out_offsets_.begin(),
                                   net.out_offsets_.end() - 1);
  std::vector<uint32_t> in_cursor(net.in_offsets_.begin(),
                                  net.in_offsets_.end() - 1);
  for (EdgeId e = 0; e < m; ++e) {
    if (!is_open(e)) continue;
    const EdgeRecord& rec = net.edge_records_[e];
    net.out_edge_ids_[out_cursor[rec.from]++] = e;
    net.in_edge_ids_[in_cursor[rec.to]++] = e;
  }

  // Sort each out-row by target id so FindEdge can binary search; parallel
  // edges are then adjacent in their row.
  const auto same_head = [&net](EdgeId a, EdgeId b) {
    return net.edge_records_[a].to == net.edge_records_[b].to;
  };
  for (VertexId v = 0; v < n; ++v) {
    auto begin = net.out_edge_ids_.begin() + net.out_offsets_[v];
    auto end = net.out_edge_ids_.begin() + net.out_offsets_[v + 1];
    std::sort(begin, end, [&net](EdgeId a, EdgeId b) {
      const auto& ra = net.edge_records_[a];
      const auto& rb = net.edge_records_[b];
      if (ra.to != rb.to) return ra.to < rb.to;
      return ra.length_m < rb.length_m;
    });
    if (std::adjacent_find(begin, end, same_head) != end) {
      net.has_parallel_edges_ = true;
    }
  }
  return net;
}

EdgeId RoadNetwork::FindEdge(VertexId from, VertexId to) const {
  const auto row = OutEdges(from);
  // Binary search over the row (sorted by target, then length ascending).
  size_t lo = 0;
  size_t hi = row.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (edge_records_[row[mid]].to < to) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo < row.size() && edge_records_[row[lo]].to == to) return row[lo];
  return kInvalidEdge;
}

double RoadNetwork::PathLengthMeters(std::span<const EdgeId> edges) const {
  double total = 0.0;
  for (EdgeId e : edges) total += edge_records_[e].length_m;
  return total;
}

double RoadNetwork::PathTravelTimeSeconds(
    std::span<const EdgeId> edges) const {
  double total = 0.0;
  for (EdgeId e : edges) total += edge_records_[e].travel_time_s;
  return total;
}

std::string RoadNetwork::Summary() const {
  return StrFormat("RoadNetwork(|V|=%zu, |E|=%zu)", num_vertices(),
                   num_edges());
}

}  // namespace pathrank::graph
