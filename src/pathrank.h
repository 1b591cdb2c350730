// Umbrella header: include this to use the full PathRank library.
//
// Typical end-to-end flow (see examples/quickstart.cpp):
//
//   auto network = graph::BuildSyntheticNetwork({});
//   auto trips   = traj::TrajectoryGenerator(network, {}).Generate();
//   auto queries = data::GenerateQueries(network, trips, genConfig);
//   auto split   = data::SplitDataset({queries}, 0.7, 0.1, rng);
//   auto table   = embedding::TrainNode2Vec(network, n2vConfig);
//   core::PathRankModel model(network.num_vertices(), modelConfig);
//   model.InitializeEmbedding(table);
//   core::TrainPathRank(model, split.train, split.validation, trainConfig);
//   auto result  = core::Evaluate(model, split.test);
//
// Deployment goes through the serving stack: capture an immutable snapshot
// of the trained weights in a thread-safe scorer, and rank
// queries through a RoutePlanner that enumerates candidates and scores
// them with it (any number of threads may share both):
//
//   serving::ServingEngine engine(network,
//                                 serving::ModelSnapshot::Capture(model));
//   serving::RoutePlannerConfig config;
//   config.network = &network;
//   serving::RoutePlanner planner(config, [&engine](auto paths) {
//     return engine.ScoreBatch(std::move(paths));
//   });
//   auto ranked = planner.Plan({source, destination}).ranked;  // one query
//   auto scored = engine.ScoreBatch(candidatePaths);     // own candidates
//
// See docs/serving.md for the threading and determinism contract.
#pragma once

#include "core/config.h"       // IWYU pragma: export
#include "core/evaluator.h"    // IWYU pragma: export
#include "core/model.h"        // IWYU pragma: export
#include "core/model_io.h"     // IWYU pragma: export
#include "core/trainer.h"      // IWYU pragma: export
#include "data/batcher.h"      // IWYU pragma: export
#include "data/candidate_generation.h"  // IWYU pragma: export
#include "data/dataset.h"      // IWYU pragma: export
#include "embedding/node2vec.h"         // IWYU pragma: export
#include "graph/network_builder.h"      // IWYU pragma: export
#include "graph/road_network.h"         // IWYU pragma: export
#include "metrics/ranking_metrics.h"    // IWYU pragma: export
#include "routing/dijkstra.h"  // IWYU pragma: export
#include "routing/diversified.h"        // IWYU pragma: export
#include "routing/yen.h"       // IWYU pragma: export
#include "serving/model_snapshot.h"     // IWYU pragma: export
#include "serving/route_planner.h"      // IWYU pragma: export
#include "serving/serving_engine.h"     // IWYU pragma: export
#include "traj/trajectory_generator.h"  // IWYU pragma: export
