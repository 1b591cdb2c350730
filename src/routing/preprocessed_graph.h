// Immutable preprocessing artifact for goal-directed shortest-path
// acceleration, built once per (network, metric) pair — in serving, once
// per GraphSnapshot epoch (serving::GraphStore owns that lifecycle and
// rebuilds it in the background after every /v1/traffic or --watch-graph
// swap).
//
// Today the artifact is ALT landmark tables (Goldberg & Harrelson 2005):
// farthest-point-sampled landmark vertices plus exact distances from and
// to every landmark, giving the admissible, consistent lower bound
//
//   h(v) = max over landmarks L of
//          max( d(L, t) - d(L, v),  d(v, L) - d(t, L) ).
//
// The type is deliberately a plain data holder (no network pointer, no
// query scratch) so one instance can be shared read-only across any
// number of concurrent AltRouter/AltEngine instances and outlive the
// query that captured it. No query reads the distance tables: AltRouter
// runs on the target's exact reverse tree instead (routing/alt.h), which
// dominates every landmark bound.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "routing/cost_model.h"
#include "routing/path.h"

namespace pathrank::routing {

/// Landmark distance tables for one (network, metric) pair. Immutable
/// after construction; share via shared_ptr<const PreprocessedGraph>.
class PreprocessedGraph {
 public:
  /// The metric kind the tables were built under. Lower bounds are only
  /// valid for queries under the same metric.
  enum class Metric { kLength, kTravelTime, kCustom };

  /// Preprocesses `num_landmarks` landmarks under `cost`: farthest-point
  /// selection from vertex 0, then one forward and one reverse
  /// one-to-all Dijkstra per landmark. O(L * E log V).
  PreprocessedGraph(const RoadNetwork& network, const EdgeCostFn& cost,
                    int num_landmarks = 8);

  /// The selected landmark vertices (diagnostics/tests).
  const std::vector<VertexId>& landmarks() const { return landmarks_; }

  /// Vertex count of the network the tables index — a cheap structural
  /// guard against pairing the artifact with the wrong snapshot.
  size_t num_vertices() const { return num_vertices_; }

  Metric metric() const { return metric_; }

  /// True when `cost` is provably the preprocessing metric (length /
  /// travel-time kinds over a same-sized network). Custom metrics cannot
  /// be compared through the type-erased view, so kCustom tables accept
  /// any custom cost — matching them is the caller's contract.
  bool CompatibleWith(const EdgeCostFn& cost) const;

 private:
  Metric metric_;
  size_t num_vertices_;
  std::vector<VertexId> landmarks_;
  // dist_from_[l][v] = d(landmark_l -> v); dist_to_[l][v] = d(v -> landmark_l).
  std::vector<std::vector<double>> dist_from_;
  std::vector<std::vector<double>> dist_to_;
};

}  // namespace pathrank::routing
