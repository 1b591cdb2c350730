// Trip-corpus CSV persistence round trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "graph/network_builder.h"
#include "traj/trajectory_generator.h"
#include "traj/trip_io.h"

namespace pathrank::traj {
namespace {

using graph::BuildTestNetwork;

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(TripIo, RoundTripPreservesPaths) {
  const auto net = BuildTestNetwork(3);
  TrajectoryGeneratorConfig cfg;
  cfg.num_drivers = 4;
  cfg.num_trips = 15;
  cfg.min_trip_distance_m = 1200.0;
  const auto trips = TrajectoryGenerator(net, cfg).Generate();

  const std::string path = TempPath("pr_trips.csv");
  SaveTrips(trips, path);
  const auto loaded = LoadTrips(net, path);
  ASSERT_EQ(loaded.size(), trips.size());
  for (size_t i = 0; i < trips.size(); ++i) {
    EXPECT_EQ(loaded[i].driver_id, trips[i].driver_id);
    EXPECT_EQ(loaded[i].path.vertices, trips[i].path.vertices);
    EXPECT_EQ(loaded[i].path.edges, trips[i].path.edges);
    EXPECT_NEAR(loaded[i].path.length_m, trips[i].path.length_m, 1e-6);
  }
  std::remove(path.c_str());
}

TEST(TripIo, SaveReportsAFailedWrite) {
  // Every write to /dev/full fails with ENOSPC; a corpus this small is
  // written only when the file is closed. SaveTrips writes `<path>.tmp`
  // and renames it onto `path`, so the temp name is the one linked.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  const auto net = BuildTestNetwork(3);
  TrajectoryGeneratorConfig cfg;
  cfg.num_drivers = 1;
  cfg.num_trips = 2;
  const auto trips = TrajectoryGenerator(net, cfg).Generate();
  const std::string path = TempPath("pr_trips_full.csv");
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".tmp");
  std::filesystem::create_symlink("/dev/full", path + ".tmp");
  EXPECT_THROW(SaveTrips(trips, path), std::runtime_error);
  EXPECT_FALSE(std::filesystem::exists(path));
  std::filesystem::remove(path + ".tmp");
}

TEST(TripIo, RejectsDisconnectedSequence) {
  const auto net = BuildTestNetwork(3);
  const std::string path = TempPath("pr_trips_bad.csv");
  {
    std::ofstream out(path);
    out << "driver_id,vertices\n";
    out << "0,0;63\n";  // not adjacent in the grid
  }
  EXPECT_THROW(LoadTrips(net, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TripIo, RejectsOutOfRangeVertex) {
  const auto net = BuildTestNetwork(3);
  const std::string path = TempPath("pr_trips_bad2.csv");
  {
    std::ofstream out(path);
    out << "driver_id,vertices\n";
    out << "0,0;99999\n";
  }
  EXPECT_THROW(LoadTrips(net, path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TripIo, RejectsSingleVertexTrip) {
  const auto net = BuildTestNetwork(3);
  const std::string path = TempPath("pr_trips_bad3.csv");
  {
    std::ofstream out(path);
    out << "driver_id,vertices\n";
    out << "0,5\n";
  }
  EXPECT_THROW(LoadTrips(net, path), std::runtime_error);
  std::remove(path.c_str());
}

// A non-numeric driver_id used to escape as a bare std::invalid_argument
// out of std::stoi and terminate the process; now it is a runtime_error
// naming the file, line and token.
TEST(TripIo, MalformedDriverIdReportsFileLineToken) {
  const auto net = BuildTestNetwork(3);
  const std::string path = TempPath("pr_trips_badid.csv");
  {
    std::ofstream out(path);
    out << "driver_id,vertices\n";
    out << "0,0;1\n";
    out << "bogus,0;1\n";
  }
  try {
    LoadTrips(net, path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path + ":3"), std::string::npos) << what;
    EXPECT_NE(what.find("'bogus'"), std::string::npos) << what;
    EXPECT_NE(what.find("driver_id"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(TripIo, MalformedVertexTokenReportsFileLineToken) {
  const auto net = BuildTestNetwork(3);
  const std::string path = TempPath("pr_trips_badtok.csv");
  {
    std::ofstream out(path);
    out << "driver_id,vertices\n";
    out << "0,0;1;zz\n";
  }
  try {
    LoadTrips(net, path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path + ":2"), std::string::npos) << what;
    EXPECT_NE(what.find("'zz'"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

TEST(TripIo, NegativeVertexTokenRejected) {
  // std::stoul would wrap "-1" modularly into a huge VertexId; the
  // checked parse refuses it outright.
  const auto net = BuildTestNetwork(3);
  const std::string path = TempPath("pr_trips_badneg.csv");
  {
    std::ofstream out(path);
    out << "driver_id,vertices\n";
    out << "0,0;-1\n";
  }
  EXPECT_THROW(LoadTrips(net, path), std::runtime_error);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pathrank::traj
