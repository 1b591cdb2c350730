#include "graph/graph_io.h"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

#include "common/csv.h"
#include "common/parse.h"
#include "common/string_util.h"

namespace pathrank::graph {
namespace {

/// ParseRoadCategory with loader context: the bare version throws
/// std::invalid_argument with no hint of WHERE the bad field sits.
RoadCategory ParseRoadCategoryField(const std::string& token,
                                    const std::string& file, size_t line) {
  try {
    return ParseRoadCategory(token);
  } catch (const std::invalid_argument&) {
    throw std::runtime_error(file + ":" + std::to_string(line) +
                             ": category expects a road category name, "
                             "got '" +
                             token + "'");
  }
}

/// One parsed edges.csv data row, validated field by field.
struct EdgeRow {
  VertexId from;
  VertexId to;
  double length_m;
  double travel_time_s;
  RoadCategory category;
};

/// Parses one edges.csv data row with per-field diagnostics. Rejects a
/// length that is not positive and a negative travel time outright
/// (ParseDoubleField already rejects nan/inf): a negative edge cost
/// breaks the shortest-path algorithms' non-negative-weight assumption,
/// the builder requires a positive length, and a negative travel time
/// would be silently replaced by the builder's category-speed default
/// instead of surfacing the bad field.
EdgeRow ParseEdgeRow(const std::vector<std::string>& row,
                     const std::string& file, size_t line) {
  if (row.size() < 5) {
    throw std::runtime_error(
        file + ":" + std::to_string(line) +
        ": expected 5 fields (from,to,length_m,travel_time_s,category), "
        "got " +
        std::to_string(row.size()));
  }
  EdgeRow edge{ParseUInt32Field(row[0], "from", file, line),
               ParseUInt32Field(row[1], "to", file, line),
               ParseDoubleField(row[2], "length_m", file, line),
               ParseDoubleField(row[3], "travel_time_s", file, line),
               ParseRoadCategoryField(row[4], file, line)};
  if (edge.length_m <= 0) {
    throw std::runtime_error(file + ":" + std::to_string(line) +
                             ": length_m must be positive, got '" + row[2] +
                             "'");
  }
  if (edge.travel_time_s < 0) {
    throw std::runtime_error(file + ":" + std::to_string(line) +
                             ": negative travel_time_s '" + row[3] + "'");
  }
  return edge;
}

}  // namespace

void SaveNetworkCsv(const RoadNetwork& network, const std::string& prefix) {
  {
    CsvWriter w(prefix + "_vertices.csv");
    w.WriteRow({"id", "lat", "lon"});
    for (VertexId v = 0; v < network.num_vertices(); ++v) {
      const Coordinate& c = network.coordinate(v);
      w.WriteRow({std::to_string(v), StrFormat("%.7f", c.lat),
                  StrFormat("%.7f", c.lon)});
    }
    w.Close();
  }
  {
    CsvWriter w(prefix + "_edges.csv");
    w.WriteRow({"from", "to", "length_m", "travel_time_s", "category"});
    for (EdgeId e = 0; e < network.num_edges(); ++e) {
      const EdgeRecord& rec = network.edge(e);
      w.WriteRow({std::to_string(rec.from), std::to_string(rec.to),
                  StrFormat("%.3f", rec.length_m),
                  StrFormat("%.3f", rec.travel_time_s),
                  RoadCategoryName(rec.category)});
    }
    w.Close();
  }
}

RoadNetwork LoadNetworkCsv(const std::string& prefix) {
  RoadNetworkBuilder builder;
  VertexId num_vertices = 0;
  {
    const std::string file = prefix + "_vertices.csv";
    CsvReader r(file);
    for (size_t i = 1; i < r.num_rows(); ++i) {
      const auto& row = r.row(i);
      const size_t line = r.line(i);
      if (row.size() < 3) {
        throw std::runtime_error(file + ":" + std::to_string(line) +
                                 ": expected 3 fields (id,lat,lon), got " +
                                 std::to_string(row.size()));
      }
      // Edges name vertices by id, and the builder numbers them by row,
      // so the ids must be 0, 1, 2, ... in row order (as SaveNetworkCsv
      // writes them).
      if (ParseUInt32Field(row[0], "id", file, line) != num_vertices) {
        throw std::runtime_error(file + ":" + std::to_string(line) +
                                 ": vertex id '" + row[0] +
                                 "' out of order, expected " +
                                 std::to_string(num_vertices));
      }
      builder.AddVertex({ParseDoubleField(row[1], "lat", file, line),
                         ParseDoubleField(row[2], "lon", file, line)});
      ++num_vertices;
    }
  }
  {
    const std::string file = prefix + "_edges.csv";
    CsvReader r(file);
    for (size_t i = 1; i < r.num_rows(); ++i) {
      const EdgeRow edge = ParseEdgeRow(r.row(i), file, r.line(i));
      if (edge.from >= num_vertices || edge.to >= num_vertices) {
        throw std::runtime_error(
            file + ":" + std::to_string(r.line(i)) + ": vertex id " +
            std::to_string(std::max(edge.from, edge.to)) +
            " is out of range (network has " + std::to_string(num_vertices) +
            " vertices)");
      }
      builder.AddEdge(edge.from, edge.to, edge.length_m, edge.category,
                      edge.travel_time_s);
    }
  }
  return builder.Build();
}

}  // namespace pathrank::graph
