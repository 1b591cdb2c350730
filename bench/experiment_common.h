// Shared workload construction and experiment runner for the table/figure
// benchmarks. Every bench binary reproduces one artefact of the paper's
// evaluation on the simulated North-Jutland-style workload.
//
// Workload size is selected with PATHRANK_BENCH_SCALE = tiny | small |
// paper (default: small, sized for a single CPU core).
#pragma once

#include <string>
#include <vector>

#include "pathrank.h"

namespace pathrank::bench {

/// Workload scale preset.
struct ExperimentScale {
  std::string name;
  int net_rows;
  int net_cols;
  int num_drivers;
  int num_trips;
  int candidates_k;
  int max_path_vertices;
  size_t hidden_size;
  int train_epochs;
  int node2vec_walks;
  int node2vec_walk_length;
  int node2vec_epochs;
};

/// Resolves the scale from PATHRANK_BENCH_SCALE (tiny|small|paper).
ExperimentScale ResolveScale();

/// A fully materialised experiment workload: network, trajectories and the
/// train/val/test datasets for one candidate-generation strategy.
struct Workload {
  graph::RoadNetwork network;
  std::vector<traj::TripPath> trips;
  data::DatasetSplit split;
  data::CandidateStrategy strategy;
};

/// Builds (deterministically) the workload for one strategy.
Workload BuildWorkload(const ExperimentScale& scale,
                       data::CandidateStrategy strategy, uint64_t seed = 42);

/// Pre-trains node2vec embeddings of dimension `dims` for the network.
nn::Matrix TrainEmbeddings(const graph::RoadNetwork& network,
                           const ExperimentScale& scale, int dims,
                           uint64_t seed = 99);

/// One PathRank training + evaluation run.
struct ExperimentResult {
  core::EvalResult test;
  double train_seconds = 0.0;
  double embed_seconds = 0.0;
  int epochs_ran = 0;
};

/// Model/training options for one grid cell.
struct RunSpec {
  int embedding_dim = 64;           // the paper's M
  bool finetune_embedding = false;  // PR-A1 (false) / PR-A2 (true)
  nn::CellType cell = nn::CellType::kGru;
  bool bidirectional = true;
  double learning_rate = 3e-3;
};

/// Trains PathRank on `workload` with pre-trained `embeddings` and returns
/// test-set metrics.
ExperimentResult RunExperiment(const Workload& workload,
                               const nn::Matrix& embeddings,
                               const ExperimentScale& scale,
                               const RunSpec& spec);

/// Prints the standard table header used by the table benches.
void PrintTableHeader(const std::string& title);

/// Prints one table row in the paper's format; its training wall time
/// goes to stderr (ReportTrainSeconds).
void PrintTableRow(const std::string& strategy, int m,
                   const ExperimentResult& result);

/// Prints a row's training wall time to stderr, so the tables on stdout
/// are byte-identical between two runs of the same code.
void ReportTrainSeconds(const std::string& row, double seconds);

}  // namespace pathrank::bench
