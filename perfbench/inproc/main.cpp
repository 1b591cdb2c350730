// perfbench_inproc: the benchmark's in-process half.
//
//   perfbench_inproc inputs    --dir D --seed S ...   network, checkpoint, trips
//   perfbench_inproc reference --dir D --stream F ... in-process RoutePlanner
//   perfbench_inproc replay    --dir D --stream F ... traced route replay
//   perfbench_inproc train     --seed S ...           the train workload
//
// perfbench/run.py drives every subcommand; see perfbench/README.md.
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

#include "common.h"
#include "core/model.h"
#include "core/model_io.h"
#include "graph/graph_io.h"
#include "graph/network_builder.h"
#include "traj/trajectory_generator.h"

namespace perfbench {

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      Fail("expected --flag value, got '" + key + "'");
    }
    values_[key.substr(2)] = argv[i + 1];
  }
}

std::string Flags::Str(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) Fail("missing flag --" + key);
  return it->second;
}

int64_t Flags::Int(const std::string& key) const {
  const std::string text = Str(key);
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') Fail("--" + key + ": not an integer");
  return value;
}

double Flags::Double(const std::string& key) const {
  const std::string text = Str(key);
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0' || !std::isfinite(value)) {
    Fail("--" + key + ": not a number");
  }
  return value;
}

void Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench_inproc: %s\n", message.c_str());
  std::exit(2);
}

void Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) Fail("cannot write " + path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << ' ' << s.parent << ' ' << s.request << ' ' << s.name << ' '
        << s.start_ns << ' ' << s.end_ns << '\n';
  }
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::string Num(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

namespace {

using namespace pathrank;

void WriteTrips(const std::vector<traj::TripPath>& trips,
                const std::string& path) {
  std::ofstream out(path);
  if (!out) Fail("cannot write " + path);
  for (const auto& trip : trips) {
    out << trip.source() << ',' << trip.destination() << ',' << trip.driver_id
        << '\n';
  }
}

/// Everything the server is given: the road network CSV pair (fixed by
/// --net-seed), a random-init checkpoint of the CLI's default shape (from
/// --seed), one-off trips for route_cold (fixed by --cold-corpus-seed, so
/// every run enumerates the same keys) and commute-structured trips for
/// route_live (fixed by --live-corpus-seed, so the pooled keys its set-up
/// warms are the same work in every run).
int RunInputs(const Flags& flags) {
  const std::string dir = flags.Str("dir");
  const auto seed = static_cast<uint64_t>(flags.Int("seed"));

  graph::SyntheticNetworkConfig net_cfg;
  net_cfg.rows = static_cast<int>(flags.Int("rows"));
  net_cfg.cols = static_cast<int>(flags.Int("cols"));
  net_cfg.seed = static_cast<uint64_t>(flags.Int("net-seed"));
  const auto network = graph::BuildSyntheticNetwork(net_cfg);
  graph::SaveNetworkCsv(network, dir + "/net");

  core::PathRankConfig model_cfg;
  model_cfg.embedding_dim = static_cast<size_t>(flags.Int("m"));
  model_cfg.hidden_size = static_cast<size_t>(flags.Int("hidden"));
  model_cfg.seed = seed;
  const core::PathRankModel model(network.num_vertices(), model_cfg);
  core::SaveModel(model, dir + "/model.bin");

  traj::TrajectoryGeneratorConfig cold;
  cold.num_trips = static_cast<int>(flags.Int("cold-trips"));
  cold.od_pairs_per_driver = 0;
  cold.seed = static_cast<uint64_t>(flags.Int("cold-corpus-seed"));
  WriteTrips(traj::TrajectoryGenerator(network, cold).Generate(),
             dir + "/trips_cold.csv");

  traj::TrajectoryGeneratorConfig live;
  live.num_trips = static_cast<int>(flags.Int("live-trips"));
  live.num_drivers = static_cast<int>(flags.Int("live-drivers"));
  live.od_pairs_per_driver = static_cast<int>(flags.Int("live-pairs"));
  live.commute_fraction = flags.Double("live-commute");
  live.max_trip_distance_m = flags.Double("live-max-distance");
  live.seed = static_cast<uint64_t>(flags.Int("live-corpus-seed"));
  WriteTrips(traj::TrajectoryGenerator(network, live).Generate(),
             dir + "/trips_live.csv");

  std::printf("{\"vertices\": %zu, \"edges\": %zu}\n", network.num_vertices(),
              network.num_edges());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) perfbench::Fail("usage: perfbench_inproc inputs|reference|replay|train --flag value ...");
  const std::string command = argv[1];
  const perfbench::Flags flags(argc, argv, 2);
  try {
    if (command == "inputs") return perfbench::RunInputs(flags);
    if (command == "reference") return perfbench::RunReference(flags);
    if (command == "replay") return perfbench::RunRouteReplay(flags);
    if (command == "train") return perfbench::RunTrain(flags);
  } catch (const std::exception& e) {
    perfbench::Fail(command + ": " + e.what());
  }
  perfbench::Fail("unknown command " + command);
}
