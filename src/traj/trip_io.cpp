#include "traj/trip_io.h"

#include <stdexcept>

#include "common/csv.h"
#include "common/parse.h"
#include "common/string_util.h"
#include "routing/path.h"

namespace pathrank::traj {

void SaveTrips(const std::vector<TripPath>& trips, const std::string& path) {
  CsvWriter w(path);
  w.WriteRow({"driver_id", "vertices"});
  for (const TripPath& trip : trips) {
    std::vector<std::string> vertex_strings;
    vertex_strings.reserve(trip.path.vertices.size());
    for (graph::VertexId v : trip.path.vertices) {
      vertex_strings.push_back(std::to_string(v));
    }
    w.WriteRow({std::to_string(trip.driver_id),
                Join(vertex_strings, ";")});
  }
  w.Close();
}

std::vector<TripPath> LoadTrips(const graph::RoadNetwork& network,
                                const std::string& path) {
  CsvReader reader(path);
  std::vector<TripPath> trips;
  for (size_t i = 1; i < reader.num_rows(); ++i) {
    const auto& row = reader.row(i);
    const size_t line = reader.line(i);  // NOT i + 1: blank lines skip
    if (row.size() < 2) {
      throw std::runtime_error(path + ":" + std::to_string(line) +
                               ": expected 2 fields (driver_id,vertices), "
                               "got " +
                               std::to_string(row.size()));
    }
    TripPath trip;
    trip.driver_id = ParseInt32Field(row[0], "driver_id", path, line);
    std::vector<graph::EdgeId> edges;
    graph::VertexId prev = graph::kInvalidVertex;
    for (const std::string& tok : Split(row[1], ';')) {
      const auto v = static_cast<graph::VertexId>(
          ParseUInt32Field(tok, "vertex id", path, line));
      if (v >= network.num_vertices()) {
        throw std::runtime_error(
            path + ":" + std::to_string(line) + ": vertex id " + tok +
            " is out of range (network has " +
            std::to_string(network.num_vertices()) + " vertices)");
      }
      if (prev != graph::kInvalidVertex) {
        const graph::EdgeId e = network.FindEdge(prev, v);
        if (e == graph::kInvalidEdge) {
          throw std::runtime_error(
              path + ":" + std::to_string(line) +
              ": consecutive vertices " + std::to_string(prev) + " -> " +
              tok + " are not connected");
        }
        edges.push_back(e);
      }
      prev = v;
    }
    if (edges.empty()) {
      throw std::runtime_error(path + ":" + std::to_string(line) +
                               ": trip with fewer than 2 vertices");
    }
    trip.path = routing::PathFromEdges(network, edges);
    trips.push_back(std::move(trip));
  }
  return trips;
}

}  // namespace pathrank::traj
