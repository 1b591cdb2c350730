// Tests for the spatial graph substrate: CSR road network, the synthetic
// network generator, and graph I/O.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <queue>
#include <set>
#include <vector>

#include "graph/graph_io.h"
#include "graph/network_builder.h"
#include "graph/road_network.h"

namespace pathrank::graph {
namespace {

RoadNetwork MakeTriangle() {
  RoadNetworkBuilder b;
  const VertexId v0 = b.AddVertex({57.0, 9.9});
  const VertexId v1 = b.AddVertex({57.01, 9.9});
  const VertexId v2 = b.AddVertex({57.0, 9.92});
  b.AddBidirectionalEdge(v0, v1, 1000.0, RoadCategory::kResidential);
  b.AddBidirectionalEdge(v1, v2, 1500.0, RoadCategory::kPrimary);
  b.AddEdge(v2, v0, 2000.0, RoadCategory::kMotorway);
  return b.Build();
}

TEST(RoadNetwork, CountsAreConsistent) {
  const RoadNetwork net = MakeTriangle();
  EXPECT_EQ(net.num_vertices(), 3u);
  EXPECT_EQ(net.num_edges(), 5u);
}

TEST(RoadNetwork, OutAndInEdgesPartitionEdges) {
  const RoadNetwork net = MakeTriangle();
  size_t out_total = 0;
  size_t in_total = 0;
  for (VertexId v = 0; v < net.num_vertices(); ++v) {
    out_total += net.OutEdges(v).size();
    in_total += net.InEdges(v).size();
  }
  EXPECT_EQ(out_total, net.num_edges());
  EXPECT_EQ(in_total, net.num_edges());
}

TEST(RoadNetwork, EdgeEndpointsMatchAdjacency) {
  const RoadNetwork net = MakeTriangle();
  for (VertexId v = 0; v < net.num_vertices(); ++v) {
    for (EdgeId e : net.OutEdges(v)) {
      EXPECT_EQ(net.edge(e).from, v);
    }
    for (EdgeId e : net.InEdges(v)) {
      EXPECT_EQ(net.edge(e).to, v);
    }
  }
}

TEST(RoadNetwork, FindEdgePresentAndAbsent) {
  const RoadNetwork net = MakeTriangle();
  EXPECT_NE(net.FindEdge(0, 1), kInvalidEdge);
  EXPECT_NE(net.FindEdge(2, 0), kInvalidEdge);
  EXPECT_EQ(net.FindEdge(0, 2), kInvalidEdge);  // directed: only 2->0 exists
  EXPECT_EQ(net.FindEdge(1, 1), kInvalidEdge);
}

TEST(RoadNetwork, ParallelEdgesFlagCountsOpenEdgesOnly) {
  EXPECT_FALSE(MakeTriangle().has_parallel_edges());
  EXPECT_FALSE(BuildTestNetwork().has_parallel_edges());

  // Vertex 0's row is 0->1, 0->2, 0->1 in insertion order: the two 0->1
  // edges meet only once the row is sorted by head. 1->0 runs the other
  // way and is no parallel edge of either.
  RoadNetworkBuilder b;
  b.AddVertex({57.0, 9.9});
  b.AddVertex({57.01, 9.9});
  b.AddVertex({57.0, 9.92});
  const EdgeId first = b.AddEdge(0, 1, 1000.0, RoadCategory::kResidential);
  const EdgeId other = b.AddEdge(0, 2, 1500.0, RoadCategory::kPrimary);
  const EdgeId second = b.AddEdge(0, 1, 1200.0, RoadCategory::kPrimary);
  b.AddEdge(1, 0, 1000.0, RoadCategory::kResidential);
  const RoadNetwork multi = b.Build();
  EXPECT_TRUE(multi.has_parallel_edges());

  // The same records rebuilt with one edge closed: a closed edge is in no
  // adjacency row, so closing either 0->1 leaves a simple graph.
  std::vector<Coordinate> coordinates;
  for (VertexId v = 0; v < multi.num_vertices(); ++v) {
    coordinates.push_back(multi.coordinate(v));
  }
  std::vector<EdgeRecord> records;
  for (EdgeId e = 0; e < multi.num_edges(); ++e) {
    records.push_back(multi.edge(e));
  }
  const auto rebuilt_closing = [&](EdgeId closed_edge) {
    std::vector<uint8_t> closed(records.size(), 0);
    closed[closed_edge] = 1;
    return RoadNetworkBuilder::BuildFrom(coordinates, records, closed);
  };
  EXPECT_FALSE(rebuilt_closing(first).has_parallel_edges());
  EXPECT_FALSE(rebuilt_closing(second).has_parallel_edges());
  EXPECT_TRUE(rebuilt_closing(other).has_parallel_edges());
  EXPECT_TRUE(
      RoadNetworkBuilder::BuildFrom(coordinates, records).has_parallel_edges());
}

TEST(RoadNetwork, DefaultTravelTimeUsesCategorySpeed) {
  const RoadNetwork net = MakeTriangle();
  const EdgeId e = net.FindEdge(2, 0);
  ASSERT_NE(e, kInvalidEdge);
  const double expected_s = 2000.0 / (DefaultSpeedKmh(RoadCategory::kMotorway) / 3.6);
  EXPECT_NEAR(net.edge(e).travel_time_s, expected_s, 1e-6);
}

TEST(RoadNetwork, PathAggregates) {
  const RoadNetwork net = MakeTriangle();
  const EdgeId e01 = net.FindEdge(0, 1);
  const EdgeId e12 = net.FindEdge(1, 2);
  const std::vector<EdgeId> edges{e01, e12};
  EXPECT_NEAR(net.PathLengthMeters(edges), 2500.0, 1e-9);
  EXPECT_GT(net.PathTravelTimeSeconds(edges), 0.0);
}

TEST(Types, HaversineKnownDistance) {
  // Aalborg to Copenhagen is roughly 223.5 km in a straight line.
  const Coordinate aalborg{57.0488, 9.9217};
  const Coordinate copenhagen{55.6761, 12.5683};
  const double d = HaversineMeters(aalborg, copenhagen);
  EXPECT_NEAR(d, 223500.0, 3000.0);
}

TEST(Types, FastDistanceCloseToHaversineRegionally) {
  const Coordinate a{57.0, 9.9};
  const Coordinate b{57.05, 9.98};
  const double h = HaversineMeters(a, b);
  const double f = FastDistanceMeters(a, b);
  EXPECT_NEAR(f / h, 1.0, 0.005);
}

TEST(Types, CategoryNamesRoundTrip) {
  for (int i = 0; i < kNumRoadCategories; ++i) {
    const auto cat = static_cast<RoadCategory>(i);
    EXPECT_EQ(ParseRoadCategory(RoadCategoryName(cat)), cat);
  }
  EXPECT_THROW(ParseRoadCategory("hyperloop"), std::invalid_argument);
}

TEST(Types, SpeedsDecreaseDownTheHierarchy) {
  EXPECT_GT(DefaultSpeedKmh(RoadCategory::kMotorway),
            DefaultSpeedKmh(RoadCategory::kPrimary));
  EXPECT_GT(DefaultSpeedKmh(RoadCategory::kPrimary),
            DefaultSpeedKmh(RoadCategory::kResidential));
  EXPECT_GT(DefaultSpeedKmh(RoadCategory::kResidential),
            DefaultSpeedKmh(RoadCategory::kService));
}

/// BFS reachability over directed edges.
size_t ReachableFrom(const RoadNetwork& net, VertexId start) {
  std::vector<bool> seen(net.num_vertices(), false);
  std::queue<VertexId> queue;
  queue.push(start);
  seen[start] = true;
  size_t count = 1;
  while (!queue.empty()) {
    const VertexId u = queue.front();
    queue.pop();
    for (EdgeId e : net.OutEdges(u)) {
      const VertexId v = net.edge(e).to;
      if (!seen[v]) {
        seen[v] = true;
        ++count;
        queue.push(v);
      }
    }
  }
  return count;
}

class SyntheticNetworkSeeds : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SyntheticNetworkSeeds, StronglyConnected) {
  SyntheticNetworkConfig cfg;
  cfg.rows = 16;
  cfg.cols = 16;
  cfg.seed = GetParam();
  const RoadNetwork net = BuildSyntheticNetwork(cfg);
  // All roads are bidirectional, so reachability from vertex 0 must cover
  // the whole network.
  EXPECT_EQ(ReachableFrom(net, 0), net.num_vertices());
}

TEST_P(SyntheticNetworkSeeds, DeterministicUnderSeed) {
  SyntheticNetworkConfig cfg;
  cfg.rows = 10;
  cfg.cols = 10;
  cfg.seed = GetParam();
  const RoadNetwork a = BuildSyntheticNetwork(cfg);
  const RoadNetwork b = BuildSyntheticNetwork(cfg);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge(e).from, b.edge(e).from);
    EXPECT_EQ(a.edge(e).to, b.edge(e).to);
    EXPECT_DOUBLE_EQ(a.edge(e).length_m, b.edge(e).length_m);
  }
}

TEST_P(SyntheticNetworkSeeds, EdgeLengthsArePlausible) {
  SyntheticNetworkConfig cfg;
  cfg.rows = 12;
  cfg.cols = 12;
  cfg.seed = GetParam();
  const RoadNetwork net = BuildSyntheticNetwork(cfg);
  for (EdgeId e = 0; e < net.num_edges(); ++e) {
    EXPECT_GT(net.edge(e).length_m, 0.0);
    EXPECT_LT(net.edge(e).length_m, 20000.0);
    EXPECT_GT(net.edge(e).travel_time_s, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SyntheticNetworkSeeds,
                         ::testing::Values(1, 7, 42, 1234, 987654321));

TEST(SyntheticNetwork, HasHierarchy) {
  SyntheticNetworkConfig cfg;
  cfg.rows = 24;
  cfg.cols = 24;
  const RoadNetwork net = BuildSyntheticNetwork(cfg);
  std::set<RoadCategory> seen;
  for (EdgeId e = 0; e < net.num_edges(); ++e) {
    seen.insert(net.edge(e).category);
  }
  EXPECT_TRUE(seen.count(RoadCategory::kMotorway));
  EXPECT_TRUE(seen.count(RoadCategory::kPrimary));
  EXPECT_TRUE(seen.count(RoadCategory::kResidential));
}

TEST(SyntheticNetwork, DegreeDistributionLooksLikeRoads) {
  SyntheticNetworkConfig cfg;
  cfg.rows = 24;
  cfg.cols = 24;
  const RoadNetwork net = BuildSyntheticNetwork(cfg);
  double mean_degree = 0.0;
  for (VertexId v = 0; v < net.num_vertices(); ++v) {
    mean_degree += static_cast<double>(net.OutDegree(v));
  }
  mean_degree /= static_cast<double>(net.num_vertices());
  // Road intersections average between 2 and 4 outgoing segments.
  EXPECT_GT(mean_degree, 2.0);
  EXPECT_LT(mean_degree, 4.5);
}

TEST(SyntheticNetwork, TestNetworkIsSmallAndConnected) {
  const RoadNetwork net = BuildTestNetwork();
  EXPECT_EQ(net.num_vertices(), 64u);
  EXPECT_EQ(ReachableFrom(net, 0), net.num_vertices());
}

TEST(GraphIo, CsvRoundTrip) {
  const RoadNetwork original = BuildTestNetwork();
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "pr_net").string();
  SaveNetworkCsv(original, prefix);
  const RoadNetwork loaded = LoadNetworkCsv(prefix);
  ASSERT_EQ(loaded.num_vertices(), original.num_vertices());
  ASSERT_EQ(loaded.num_edges(), original.num_edges());
  for (EdgeId e = 0; e < original.num_edges(); ++e) {
    EXPECT_EQ(loaded.edge(e).from, original.edge(e).from);
    EXPECT_EQ(loaded.edge(e).to, original.edge(e).to);
    EXPECT_NEAR(loaded.edge(e).length_m, original.edge(e).length_m, 1e-3);
    EXPECT_EQ(loaded.edge(e).category, original.edge(e).category);
  }
  std::remove((prefix + "_vertices.csv").c_str());
  std::remove((prefix + "_edges.csv").c_str());
}

TEST(GraphIo, EdgesOnlyLoaderMatchesCsvPair) {
  const RoadNetwork original = BuildTestNetwork();
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "pr_net_eo").string();
  SaveNetworkCsv(original, prefix);
  const RoadNetwork loaded = LoadNetworkEdgesCsv(prefix + "_edges.csv");
  ASSERT_EQ(loaded.num_vertices(), original.num_vertices());
  ASSERT_EQ(loaded.num_edges(), original.num_edges());
  for (EdgeId e = 0; e < original.num_edges(); ++e) {
    EXPECT_EQ(loaded.edge(e).from, original.edge(e).from);
    EXPECT_EQ(loaded.edge(e).to, original.edge(e).to);
    EXPECT_EQ(loaded.edge(e).category, original.edge(e).category);
  }
  std::remove((prefix + "_vertices.csv").c_str());
  std::remove((prefix + "_edges.csv").c_str());
}

// Writes a CSV-pair network whose edges.csv data line is `edge_row`, and
// returns the prefix (caller removes the two files).
std::string WriteNetworkWithEdgeRow(const char* name,
                                    const std::string& edge_row) {
  const std::string prefix =
      (std::filesystem::temp_directory_path() / name).string();
  {
    std::ofstream vertices(prefix + "_vertices.csv");
    vertices << "id,lat,lon\n0,57.0,9.9\n1,57.01,9.9\n";
  }
  {
    std::ofstream edges(prefix + "_edges.csv");
    edges << "from,to,length_m,travel_time_s,category\n" << edge_row << "\n";
  }
  return prefix;
}

// A non-numeric field used to escape as a bare std::invalid_argument out
// of std::stoul and terminate the process; now it is a runtime_error
// naming file, line and token.
TEST(GraphIo, MalformedEdgeFieldReportsFileLineToken) {
  const std::string prefix =
      WriteNetworkWithEdgeRow("pr_net_bad", "0,abc,1000.0,50.0,primary");
  try {
    LoadNetworkCsv(prefix);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("_edges.csv:2"), std::string::npos) << what;
    EXPECT_NE(what.find("'abc'"), std::string::npos) << what;
    EXPECT_NE(what.find("to"), std::string::npos) << what;
  }
  std::remove((prefix + "_vertices.csv").c_str());
  std::remove((prefix + "_edges.csv").c_str());
}

TEST(GraphIo, OutOfRangeAndJunkSuffixFieldsRejected) {
  // 2^32 overflows VertexId; "12x" has a trailing non-digit; both were
  // silent (wrap / prefix-parse) under std::stoul. "nan"/"inf" parse
  // under bare strtod but would poison shortest-path comparisons, and a
  // negative length breaks the non-negative-weight assumption.
  for (const char* row :
       {"4294967296,1,1000.0,50.0,primary", "12x,1,1000.0,50.0,primary",
        "0,1,12,3.0,50.0,primary", "0,1,1000.0,50.0,motorbike",
        "0,1,nan,50.0,primary", "0,1,inf,50.0,primary",
        "0,1,-1000.0,50.0,primary", "0,1,1000.0,-50.0,primary",
        // An endpoint that is not a vertex row (the file has vertices 0
        // and 1) and a zero length used to fail the builder's internal
        // check, a std::logic_error with no file or line.
        "1,7,1000.0,50.0,primary", "7,1,1000.0,50.0,primary",
        "0,1,0,50.0,primary"}) {
    const std::string prefix = WriteNetworkWithEdgeRow("pr_net_bad2", row);
    try {
      LoadNetworkCsv(prefix);
      ADD_FAILURE() << "expected std::runtime_error for " << row;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("_edges.csv:2"),
                std::string::npos)
          << e.what();
    }
    std::remove((prefix + "_vertices.csv").c_str());
    std::remove((prefix + "_edges.csv").c_str());
  }
}

TEST(GraphIo, DiagnosticLineNumbersSkipBlankLines) {
  // CsvReader drops blank lines; the reported line must still be the
  // FILE line, not the row index.
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "pr_net_blank").string();
  {
    std::ofstream vertices(prefix + "_vertices.csv");
    vertices << "id,lat,lon\n0,57.0,9.9\n1,57.01,9.9\n";
  }
  {
    std::ofstream edges(prefix + "_edges.csv");
    edges << "from,to,length_m,travel_time_s,category\n"
          << "\n\n"  // two blank lines: the bad row sits on file line 4
          << "0,1,1e3,oops,primary\n";
  }
  try {
    LoadNetworkCsv(prefix);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("_edges.csv:4"), std::string::npos) << what;
    EXPECT_NE(what.find("'oops'"), std::string::npos) << what;
  }
  std::remove((prefix + "_vertices.csv").c_str());
  std::remove((prefix + "_edges.csv").c_str());
}

TEST(GraphIo, MalformedVertexCoordinateReportsFileLine) {
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "pr_net_badv").string();
  {
    std::ofstream vertices(prefix + "_vertices.csv");
    vertices << "id,lat,lon\n0,57.0,9.9\n1,five,9.9\n";
  }
  {
    std::ofstream edges(prefix + "_edges.csv");
    edges << "from,to,length_m,travel_time_s,category\n";
  }
  try {
    LoadNetworkCsv(prefix);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("_vertices.csv:3"), std::string::npos) << what;
    EXPECT_NE(what.find("'five'"), std::string::npos) << what;
  }
  std::remove((prefix + "_vertices.csv").c_str());
  std::remove((prefix + "_edges.csv").c_str());
}

TEST(GraphIo, VertexIdsMustFollowRowOrder) {
  // Edges name vertices by id and the loader numbers them by row, so ids
  // 2,0,1 would give vertex 0 the coordinates written for id 2.
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "pr_net_order").string();
  {
    std::ofstream vertices(prefix + "_vertices.csv");
    vertices << "id,lat,lon\n2,57.02,9.9\n0,57.0,9.9\n1,57.01,9.9\n";
  }
  {
    std::ofstream edges(prefix + "_edges.csv");
    edges << "from,to,length_m,travel_time_s,category\n"
          << "0,1,1000.0,50.0,primary\n";
  }
  try {
    LoadNetworkCsv(prefix);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("_vertices.csv:2"), std::string::npos) << what;
    EXPECT_NE(what.find("'2'"), std::string::npos) << what;
  }
  std::remove((prefix + "_vertices.csv").c_str());
  std::remove((prefix + "_edges.csv").c_str());
}

TEST(GraphIo, SaveReportsAFailedWrite) {
  // Every write to /dev/full fails with ENOSPC. A network this small is
  // written only when the file is closed.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const std::string prefix =
      (std::filesystem::temp_directory_path() / "pr_net_full").string();
  std::filesystem::remove(prefix + "_vertices.csv");
  std::filesystem::create_symlink("/dev/full", prefix + "_vertices.csv");
  EXPECT_THROW(SaveNetworkCsv(MakeTriangle(), prefix), std::runtime_error);
  std::filesystem::remove(prefix + "_vertices.csv");
  std::filesystem::remove(prefix + "_edges.csv");
}

TEST(GraphIo, EdgesOnlyLoaderRejectsImplausibleVertexIds) {
  // One corrupt id must be a file:line diagnostic, not a multi-gigabyte
  // vertex allocation (4294967295 would even wrap the seeding loop —
  // it is the kInvalidVertex sentinel).
  for (const char* row : {"4294967295,1,100.0,10.0,primary",
                          "4000000000,1,100.0,10.0,primary"}) {
    const std::string path =
        (std::filesystem::temp_directory_path() / "pr_net_hugeid.csv")
            .string();
    {
      std::ofstream edges(path);
      edges << "from,to,length_m,travel_time_s,category\n" << row << "\n";
    }
    EXPECT_THROW(LoadNetworkEdgesCsv(path), std::runtime_error) << row;
    std::remove(path.c_str());
  }
}

TEST(GraphIo, EdgesOnlyLoaderRejectsEmptyFile) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "pr_net_empty.csv").string();
  {
    std::ofstream edges(path);
    edges << "from,to,length_m,travel_time_s,category\n";
  }
  EXPECT_THROW(LoadNetworkEdgesCsv(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Builder, RejectsInvalidEdges) {
  RoadNetworkBuilder b;
  b.AddVertex({57.0, 9.9});
  EXPECT_THROW(b.AddEdge(0, 5, 100.0, RoadCategory::kResidential),
               std::logic_error);
  EXPECT_THROW(b.AddEdge(0, 0, -1.0, RoadCategory::kResidential),
               std::logic_error);
}

}  // namespace
}  // namespace pathrank::graph
